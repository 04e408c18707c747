"""Acceptance suite: one test per criterion, exact tolerances, one line each.

Run with ``pytest tests/test_acceptance.py -v`` (or ``-s`` to see the
explicit PASS lines).  The expensive exhaustive-search results are computed
once per session and shared across criteria.
"""

import itertools
import random
from fractions import Fraction
from math import comb

import pytest

from conftest import brute_force_isomorphic
from cyclesat.bounds import Observation, check_consistency, eval_bounds
from cyclesat.codec import graph6_decode, graph6_encode
from cyclesat.cycles import exists_path_of_length
from cyclesat.families import build_h1, build_h2, build_h3, build_wheel
from cyclesat.graphs import Graph, canonical_code
from cyclesat.oracle import append_golden, exact_min
from cyclesat.saturation import (
    check_structure,
    greedy_saturate,
    is_saturated,
    is_semisaturated,
    strip_leaves,
)
from cyclesat.suitability import is_k_suitable, is_kk2_suitable, mine_suitable

# goldens from the exhaustive searches, frozen
SSAT_9_C5_VALUE = 11
SSAT_9_C5_WITNESS = "H??GjEf"
MINE_K6_VALUE = 9
MINE_K6_WITNESS = "EJew"
MINE_K8_VALUE = 13
MINE_K8_WITNESS = "G@TcvK"
MINE_K8_PAIR = {"a1": 1, "a2": 5}


@pytest.fixture(scope="module")
def oracle_results():
    """Every exact-search result the acceptance criteria rely on."""
    results = {}
    for n in (5, 6, 7):
        results[(n, 4, "sat")] = exact_min(n, 4, "sat")
    for n in range(3, 8):
        results[(n, 3, "sat")] = exact_min(n, 3, "sat")
    results[(8, 4, "sat")] = exact_min(8, 4, "sat")  # stretch case
    results[(9, 5, "ssat")] = exact_min(9, 5, "ssat", budget_seconds=1700)
    return results


def test_criterion_1_h1_family_edge_counts_saturation_and_bounds():
    for k in range(7, 13):
        for t in range(1, 6):
            for r in range(0, k - 4):
                n = (k - 1) + r + t * (k - 4)
                built = build_h1(k, n)
                expected = comb(k - 3, 2) + 4 + r + t * (k - 3)
                assert built.graph.edge_count == expected, (k, n)
                assert is_saturated(built.graph, k, want_certificate=False).holds, (
                    k,
                    n,
                )
                table = eval_bounds(n, k)
                assert table["sat-lower"].applicable and table["sat-upper"].applicable
                assert table["sat-lower"].value < expected < table["sat-upper"].value, (
                    k,
                    n,
                )
    print("ACCEPTANCE 1 (h1 construction suite k=7..12): PASS")


def test_criterion_2_path_properties_inside_the_core():
    for k in range(7, 11):
        for t, r in ((1, 0), (2, k - 5)):
            n = (k - 1) + r + t * (k - 4)
            built = build_h1(k, n)
            a1, a2 = built.special_pair()
            q_vertices = built.labels["Q"]
            core, remap = built.graph.induced(q_vertices)
            # all a1-a2 lengths except 3 realize inside the core block
            lengths = [1, 2] + list(range(4, k - 1))
            for ell in lengths:
                assert (
                    exists_path_of_length(core, remap[a1], remap[a2], ell) is not None
                ), (k, t, r, ell)
            # and length 3 is impossible anywhere in the full graph
            assert exists_path_of_length(built.graph, a1, a2, 3) is None, (k, t, r)
            # every core vertex is reachable from each special vertex at
            # every length in the upper window, inside the core
            lo = (k + 1 + 1) // 2  # ceil((k + 1) / 2)
            for a in (a1, a2):
                for q in q_vertices:
                    if q == a:
                        continue
                    for m in range(lo, k - 1):
                        assert (
                            exists_path_of_length(core, remap[a], remap[q], m)
                            is not None
                        ), (k, t, r, a, q, m)
    print("ACCEPTANCE 2 (path properties k=7..10): PASS")


def test_criterion_3_wheel_suitability():
    for k in range(4, 11):
        for r in range(0, k + 1):
            assert is_k_suitable(build_wheel(k, r), k).suitable, (k, r)
    for k in range(6, 11):
        for r in range(0, k + 1):
            assert is_kk2_suitable(build_wheel(k, r), k).suitable, (k, r)
    print("ACCEPTANCE 3 (wheel suitability): PASS")


def test_criterion_4_semisaturated_families_and_closed_forms():
    for k in range(6, 11):
        for t in (1, 3):
            for r in (4, k):
                core = build_wheel(k, r)
                built = build_h2(core, k, t)
                expected = core.graph.edge_count + t * (k - 2)
                assert built.graph.edge_count == expected, (k, t, r)
                assert built.graph.n == core.graph.n + t * (k - 3)
                assert is_semisaturated(built.graph, k, want_certificate=False).holds
                table = eval_bounds(built.graph.n, k)
                assert table["ssat-upper-h2"].applicable
                assert table["ssat-upper-h2"].value == expected, (k, t, r)
    for k in range(7, 11):
        for t in (2, 3):
            for r in (0, 1, 2 * k - 11):
                core = build_wheel(k, 0)
                built = build_h3(core, k, t, r)
                expected = core.graph.edge_count + t * (2 * k - 9) - r
                assert built.graph.edge_count == expected, (k, t, r)
                assert built.graph.n == core.graph.n + t * (2 * k - 10) - r
                assert is_semisaturated(built.graph, k, want_certificate=False).holds
                table = eval_bounds(built.graph.n, k)
                assert table["ssat-upper-h3"].applicable
                assert table["ssat-upper-h3"].value == expected, (k, t, r)
    print("ACCEPTANCE 4 (h2/h3 semisaturated families): PASS")


def test_criterion_5_oracle_matches_known_formulas(oracle_results):
    for n, expected in ((5, 5), (6, 6), (7, 8)):
        result = oracle_results[(n, 4, "sat")]
        assert result.status == "exact"
        assert result.value == expected == (3 * n - 5) // 2
    for n in range(3, 8):
        result = oracle_results[(n, 3, "sat")]
        assert result.status == "exact"
        assert result.value == n - 1
    # stretch case, non-blocking in the criterion but green here
    stretch = oracle_results[(8, 4, "sat")]
    assert stretch.status == "exact" and stretch.value == 9 == (3 * 8 - 5) // 2
    print("ACCEPTANCE 5 (exhaustive search vs known formulas): PASS")


def test_criterion_6_oracle_values_respect_lower_bounds(oracle_results):
    for (n, k, mode), result in oracle_results.items():
        assert result.status == "exact"
        report = check_consistency(
            n, k, [Observation("search", mode, "exact", result.value)]
        )
        assert report.consistent, (n, k, mode, report.violations())
        # min-degree-2 lower bound, applied to the leaf-stripped core
        if k >= 5:
            core, removed = strip_leaves(result.witness)
            if core.n >= k:
                bound = Fraction(k, k - 1) * core.n - Fraction(k + 1, k - 1)
                assert core.edge_count >= bound, (n, k, mode)
    print("ACCEPTANCE 6 (oracle values vs lower bounds): PASS")


def test_criterion_7_ssat_9_c5_reconstruction(oracle_results, tmp_path):
    result = oracle_results[(9, 5, "ssat")]
    assert result.status == "exact"
    assert result.value <= 11  # the closed-form family guarantees 11 edges
    assert result.value == SSAT_9_C5_VALUE  # golden: exhaustive search answer
    witness = result.witness
    assert witness.n == 9 and witness.edge_count == result.value
    assert is_semisaturated(witness, 5, want_certificate=False).holds
    assert graph6_encode(witness) == SSAT_9_C5_WITNESS  # golden
    assert result.stats.graphs_examined == 6005  # golden: every stratum whole
    golden_file = tmp_path / "oracle_values.csv"
    append_golden(golden_file, result)
    assert golden_file.read_text().splitlines()[1] == "9,5,ssat,11,H??GjEf"
    print("ACCEPTANCE 7 (ssat(9, C5) reconstruction): PASS")


def test_criterion_8_structural_property_suite():
    cases = 0
    for seed in range(100):
        rng = random.Random(seed)
        k = (5, 6, 7)[seed % 3]
        n = 8 + seed % 8  # 8..15
        order = list(itertools.combinations(range(n), 2))
        rng.shuffle(order)
        g = greedy_saturate(n, k, order)
        assert is_saturated(g, k, want_certificate=False).holds
        report = check_structure(g, k, checks=("i", "ii", "iii", "iv", "v", "vi"))
        assert report.ok, (seed, n, k, report.violations)
        core, removed = strip_leaves(g)
        assert core.n > 0 and min(map(core.degree, range(core.n))) >= 2
        cover = check_structure(core, k, checks=("cycle-cover",))
        assert cover.ok, (seed, n, k, cover.violations)
        bound = Fraction(k, k - 1) * core.n - Fraction(k + 1, k - 1)
        assert core.edge_count >= bound, (seed, n, k)
        cases += 1
    assert cases == 100
    print("ACCEPTANCE 8 (structural property suite, 100 instances): PASS")


def test_criterion_9_miner_terminates_and_reverifies():
    result = mine_suitable(6, "k-suitable")
    assert result.status == "exact"
    assert result.edge_count <= 10
    assert result.edge_count == MINE_K6_VALUE  # golden
    assert graph6_encode(result.witness.graph) == MINE_K6_WITNESS  # golden
    assert is_k_suitable(result.witness, 6).suitable
    # k = 8: both modes share the minimum, the witness and the special pair
    for mode, full in (("k-suitable", is_k_suitable), ("kk2-suitable", is_kk2_suitable)):
        result = mine_suitable(8, mode)
        assert result.status == "exact", mode
        assert result.edge_count == MINE_K8_VALUE, mode  # golden
        assert graph6_encode(result.witness.graph) == MINE_K8_WITNESS, mode  # golden
        assert result.witness.labels == MINE_K8_PAIR, mode  # golden
        assert full(result.witness, 8).suitable, mode
    print("ACCEPTANCE 9 (minimal suitable core miner): PASS")


def test_criterion_10_infrastructure():
    # graph6 round-trip on 1000 random graphs up to 20 vertices
    rng = random.Random(2024)
    for _ in range(1000):
        n = rng.randint(0, 20)
        pairs = list(itertools.combinations(range(n), 2))
        g = Graph(n, [p for p in pairs if rng.random() < 0.3])
        assert graph6_decode(graph6_encode(g)) == g
    # canonical codes agree with brute-force isomorphism over a 200-graph
    # corpus with at most 7 vertices, on all pairs
    corpus = []
    for _ in range(200):
        n = rng.randint(1, 7)
        pairs = list(itertools.combinations(range(n), 2))
        corpus.append(Graph(n, [p for p in pairs if rng.random() < 0.5]))
    codes = [canonical_code(g) for g in corpus]
    for i, j in itertools.combinations(range(200), 2):
        assert (codes[i] == codes[j]) == brute_force_isomorphic(corpus[i], corpus[j])
    print("ACCEPTANCE 10 (infrastructure): PASS")
