from math import comb

import pytest

from conftest import pass_suitability_gate, path_graph
from cyclesat.bounds import eval_bounds
from cyclesat.families import (
    ConstructionParamError,
    ConstructionPostconditionError,
    UnsuitableCoreError,
    build_h1,
    build_h2,
    build_h3,
    build_wheel,
    h1_decompose,
)
from cyclesat.graphs import LabeledGraph
from cyclesat.saturation import is_saturated, is_semisaturated


# -- h1 ---------------------------------------------------------------------


def test_h1_7_9_shape():
    h = build_h1(7, 9)
    assert h1_decompose(7, 9) == (1, 0)
    assert "R1" in h.labels and "R2" not in h.labels and h.labels["D"] == ()
    assert h.graph.edge_count == 14  # C(4,2) + 4 + 0 + 4


def test_h1_7_9_is_saturated():
    assert is_saturated(build_h1(7, 9).graph, 7, want_certificate=False).holds


def test_h1_8_20_shape_and_saturation():
    h = build_h1(8, 20)
    # 20 = 7 + 1 + 3*4, so three path blocks and one pendant
    assert h1_decompose(8, 20) == (3, 1)
    assert "R3" in h.labels and "R4" not in h.labels and len(h.labels["D"]) == 1
    assert h.graph.edge_count == comb(5, 2) + 4 + 1 + 3 * 5 == 30
    assert is_saturated(h.graph, 8, want_certificate=False).holds


def test_h1_edge_count_tracks_formula():
    for k in (7, 9, 11):
        for t in (1, 2):
            for r in (0, k - 5):
                n = (k - 1) + r + t * (k - 4)
                h = build_h1(k, n)
                assert h.graph.edge_count == comb(k - 3, 2) + 4 + r + t * (k - 3)
                assert h.graph.n == n


def test_h1_edge_count_between_main_bounds():
    for k in (7, 8, 10):
        for t in (1, 3):
            n = (k - 1) + t * (k - 4)
            h = build_h1(k, n)
            table = eval_bounds(n, k)
            assert table["sat-lower"].value < h.graph.edge_count
            assert h.graph.edge_count < table["sat-upper"].value


def test_h1_rejects_small_k():
    for k in (5, 6):
        with pytest.raises(ConstructionParamError):
            build_h1(k, 4 * k)


def test_h1_rejects_undecomposable_n():
    with pytest.raises(ConstructionParamError):
        build_h1(7, 8)  # below 2k-5 = 9


def test_h1_decompose_covers_every_n():
    for k in (7, 8, 9):
        for n in range(2 * k - 5, 6 * k):
            t, r = h1_decompose(k, n)
            assert t >= 1 and 0 <= r <= k - 5
            assert n == (k - 1) + r + t * (k - 4)


def test_h1_blocks_are_disjoint_and_cover():
    h = build_h1(9, 24)
    blocks = [h.labels["A"], h.labels["B"], h.labels["C"], h.labels["D"]]
    blocks += [h.labels[f"R{i + 1}"] for i in range(h1_decompose(9, 24)[0])]
    flat = [v for b in blocks for v in b]
    assert sorted(flat) == list(range(h.graph.n))
    assert set(h.labels["Q"]) == set(h.labels["A"]) | set(h.labels["B"]) | set(
        h.labels["C"]
    ) | set(h.labels["D"])


def test_h1_deterministic_rebuild():
    assert build_h1(8, 20).graph == build_h1(8, 20).graph
    assert build_h1(8, 20).labels == build_h1(8, 20).labels


# -- wheel ---------------------------------------------------------------------


def test_wheel_sizes():
    w = build_wheel(6, 0)
    assert (w.graph.n, w.graph.edge_count) == (6, 10)
    w = build_wheel(6, 4)
    assert (w.graph.n, w.graph.edge_count) == (10, 14)


def test_wheel_semisaturated():
    assert is_semisaturated(build_wheel(6, 0).graph, 6, want_certificate=False).holds


def test_wheel_structure():
    w = build_wheel(5, 2)
    g = w.graph
    hub = w.labels["hub"]
    assert g.degree(hub) == 5  # rim plus one spike
    assert all(g.has_edge(hub, i) for i in range(1, 5))
    assert g.has_edge(1, 4)  # rim closes


def test_wheel_rejects_bad_params():
    with pytest.raises(ConstructionParamError):
        build_wheel(3, 0)
    with pytest.raises(ConstructionParamError):
        build_wheel(5, 6)


# -- h2 ---------------------------------------------------------------------


def test_h2_on_spiked_wheel():
    h = build_h2(build_wheel(6, 4), 6, 2)
    assert h.graph.n == 16
    assert h.graph.edge_count == 14 + 2 * 4 == 22
    # agrees with the closed-form semisaturation upper bound at n = 16
    assert eval_bounds(16, 6)["ssat-upper-h2"].value == 22
    assert is_semisaturated(h.graph, 6, want_certificate=False).holds


def test_h2_t_zero_is_identity():
    w = build_wheel(6, 0)
    h = build_h2(w, 6, 0)
    assert h.graph == w.graph


def test_h2_w7_three_blocks():
    h = build_h2(build_wheel(7, 0), 7, 3)
    assert h.graph.n == 7 + 3 * 4 == 19
    assert h.graph.edge_count == 12 + 3 * 5 == 27
    assert is_semisaturated(h.graph, 7, want_certificate=False).holds


@pytest.mark.parametrize(
    "k,t,message",
    [(3, 1, "family h2 needs k >= 4, got k=3"), (6, -1, "family h2 needs t >= 0, got t=-1")],
)
def test_h2_rejects_bad_params(k, t, message):
    with pytest.raises(ConstructionParamError, match=message):
        build_h2(build_wheel(6, 0), k, t)


def test_h2_rejects_unsuitable_core():
    bad_core = build_wheel(6, 0)
    # declaring a2 to be the hub's antipode breaks S2 (no a1-a2 edge)
    core = LabeledGraph(bad_core.graph, {"a1": 1, "a2": 4})
    with pytest.raises(UnsuitableCoreError, match="core is not k-suitable"):
        build_h2(core, 6, 1)


# -- h3 ---------------------------------------------------------------------


def test_h3_w8_basic():
    h = build_h3(build_wheel(8, 0), 8, 2, 0)
    assert h.graph.n == 8 + 2 * 6 == 20
    assert h.graph.edge_count == 14 + 2 * 7 == 28
    assert eval_bounds(20, 8)["ssat-upper-h3"].value == 28
    assert is_semisaturated(h.graph, 8, want_certificate=False).holds


def test_h3_with_trimmed_spikes():
    h = build_h3(build_wheel(8, 0), 8, 2, 3)
    assert h.graph.n == 17
    assert h.graph.edge_count == 14 + 2 * 7 - 3 == 25
    assert is_semisaturated(h.graph, 8, want_certificate=False).holds


def test_h3_spike_trimming_removes_last_block_first():
    h = build_h3(build_wheel(8, 0), 8, 2, 2)
    g = h.graph
    r2 = h.labels["R2"]
    # the two highest-indexed interior vertices of the last block are bare
    assert g.degree(r2[-1]) == 2 and g.degree(r2[-2]) == 2
    assert all(g.degree(v) == 3 for v in h.labels["R1"])


def test_h3_rejects_bad_params():
    w = build_wheel(8, 0)
    with pytest.raises(ConstructionParamError):
        build_h3(w, 8, 1, 0)  # t < 2
    with pytest.raises(ConstructionParamError):
        build_h3(w, 8, 2, 6)  # r >= 2k-10
    with pytest.raises(ConstructionParamError):
        build_h3(build_wheel(5, 0), 5, 2, 0)  # k < 6


@pytest.mark.parametrize(
    "build,mode",
    [
        (lambda core: build_h2(core, 8, 2), "k-suitable"),
        (lambda core: build_h3(core, 8, 2, 0), "kk2-suitable"),
    ],
    ids=["h2", "h3"],
)
def test_postcondition_catches_broken_core(monkeypatch, build, mode):
    # a path is not remotely suitable, so the gate refuses it; with the gate
    # made to pass it, the output verification must still reject the graph
    path_core = LabeledGraph(path_graph(8), {"a1": 0, "a2": 7})
    with pytest.raises(UnsuitableCoreError, match=f"core is not {mode}"):
        build(path_core)
    pass_suitability_gate(monkeypatch)
    with pytest.raises(ConstructionPostconditionError, match="is not semisaturated for k=8"):
        build(path_core)


def test_builders_deterministic():
    a = build_h3(build_wheel(9, 0), 9, 2, 1)
    b = build_h3(build_wheel(9, 0), 9, 2, 1)
    assert a.graph == b.graph and a.labels == b.labels
