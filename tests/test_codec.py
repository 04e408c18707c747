import itertools
import random

import pytest
from hypothesis import given

from conftest import complete_graph, graphs
from cyclesat.codec import (
    EdgeListError,
    Graph6Error,
    detect_and_decode,
    edge_list_decode,
    edge_list_encode,
    graph6_decode,
    graph6_encode,
    labels_decode,
    labels_encode,
)
from cyclesat.families import build_h1, build_h2, build_h3, build_wheel
from cyclesat.graphs import Graph


def test_k3_encodes_to_Bw():
    # size byte 63+3 = 'B'; triangle bits 111 padded to 111000 = 56 -> 'w'
    assert graph6_encode(complete_graph(3)) == "Bw"


def test_single_vertex_encodes_to_at_sign():
    assert graph6_encode(Graph(1, [])) == "@"


def test_decode_known_values():
    assert graph6_decode("Bw") == complete_graph(3)
    assert graph6_decode("@") == Graph(1, [])


@given(graphs(max_n=12))
def test_graph6_round_trip(g):
    assert graph6_decode(graph6_encode(g)) == g


@pytest.fixture(scope="module")
def nx():
    # imported outside the timed test body, whose first example would pay for it
    return pytest.importorskip("networkx")


@given(graphs(max_n=62))
def test_graph6_matches_networkx(nx, g):
    # an independent encoder pins the bit order, not just the round trip
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges)
    line = graph6_encode(g)
    assert line == nx.to_graph6_bytes(h, header=False).decode().strip()
    assert graph6_decode(line) == g


def test_graph6_round_trip_random_large():
    rng = random.Random(3)
    for _ in range(100):
        n = rng.randint(0, 12)
        pairs = list(itertools.combinations(range(n), 2))
        g = Graph(n, [p for p in pairs if rng.random() < 0.4])
        assert graph6_decode(graph6_encode(g)) == g


def test_graph6_rejects_truncation():
    line = graph6_encode(complete_graph(5))
    with pytest.raises(Graph6Error, match="truncated"):
        graph6_decode(line[:-1])


def test_graph6_rejects_trailing_garbage():
    line = graph6_encode(complete_graph(5))
    with pytest.raises(Graph6Error, match="trailing"):
        graph6_decode(line + "A")


@pytest.mark.parametrize(
    "line,message",
    [("", "empty graph6 line"), ("Bx", "nonzero padding bits")],
)
def test_graph6_decode_rejects(line, message):
    # 'x' carries the triangle bits 111 and a stray padding bit 001
    with pytest.raises(Graph6Error, match=message):
        graph6_decode(line)


def test_graph6_rejects_nonprintable():
    with pytest.raises(Graph6Error, match="non-printable"):
        graph6_decode("B\x07")


def test_graph6_rejects_oversize_prefix():
    with pytest.raises(Graph6Error, match="not supported"):
        graph6_decode("~??")


def test_graph6_rejects_too_many_vertices():
    with pytest.raises(Graph6Error):
        graph6_encode(Graph(63, []))


def test_graph6_round_trip_at_size_limit():
    rng = random.Random(62)
    for n in (61, 62):
        pairs = list(itertools.combinations(range(n), 2))
        g = Graph(n, [p for p in pairs if rng.random() < 0.15])
        assert graph6_decode(graph6_encode(g)) == g


def test_edge_list_round_trip():
    g = Graph(5, [(0, 1), (2, 4)])
    assert edge_list_decode(edge_list_encode(g)) == g
    assert edge_list_encode(g) == "5\n0 1\n2 4\n"


def test_edge_list_rejects_garbage():
    with pytest.raises(EdgeListError):
        edge_list_decode("not a number\n")
    with pytest.raises(EdgeListError):
        edge_list_decode("3\n0 1 2\n")
    with pytest.raises(EdgeListError):
        edge_list_decode("")
    with pytest.raises(EdgeListError, match="bad edge line '0 x'"):
        edge_list_decode("3\n0 x\n")


def test_autodetect():
    g = Graph(4, [(0, 1), (1, 2)])
    assert detect_and_decode(graph6_encode(g)) == g
    assert detect_and_decode(edge_list_encode(g)) == g


def test_autodetect_rejects_a_second_graph6_line():
    # trailing blank lines are fine; a second graph is not silently dropped
    assert detect_and_decode("Bw\n\n  \n") == complete_graph(3)
    with pytest.raises(Graph6Error, match="more than one line"):
        detect_and_decode("Bw\ngarbage")
    with pytest.raises(Graph6Error, match="more than one line"):
        detect_and_decode("Bw\n\nBw\n")


def test_labels_of_every_family_decode():
    # together the builders write every role the sidecar accepts
    wheel = build_wheel(6, 2)
    built = [wheel, build_h1(7, 15), build_h2(wheel, 6, 1), build_h3(wheel, 6, 2, 1)]
    for member in built:
        assert labels_decode(labels_encode(member.labels)) == member.labels
    roles = {role for member in built for role in member.labels}
    assert roles == {"a1", "a2", "hub", "A", "B", "C", "D", "Q", "R1", "R2", "R3"}


def test_labels_round_trip():
    labels = {"a1": 0, "a2": 1, "A": (0, 1), "C": (4, 5, 6), "D": ()}
    assert labels_decode(labels_encode(labels)) == labels


def test_labels_decode_skips_blank_lines():
    assert labels_decode("a1=0\n\n  \na2=3\n") == {"a1": 0, "a2": 3}


@pytest.mark.parametrize(
    "text",
    [
        "a1=x\na2=1\n", "C=4 five\n", "a1\n", "a1=1 2\n", "=1 2\n", " = 1\n",
        "a1=0\na2=1\nbogus=3\n", "R0=1 2\n", "R=1\n", "r1=1\n",
    ],
)
def test_labels_decode_rejects_bad_lines(text):
    with pytest.raises(EdgeListError):
        labels_decode(text)
