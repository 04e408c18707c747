"""Text encodings: graph6 lines, plain edge lists, and label sidecars.

A graph6 body (McKay, https://users.cecs.anu.edu.au/~bdm/data/formats.txt)
holds the upper triangle column by column, x(0,1), x(0,2), x(1,2), ...: the
bit order of ``graphs._code_from_order``, so it is the identity order's code.
"""

from __future__ import annotations

import re

from .graphs import Graph, _code_from_order, _graph_from_code

_MAX_GRAPH6_N = 62


class Graph6Error(ValueError):
    """Malformed graph6 input."""


class EdgeListError(ValueError):
    """Malformed edge-list input."""


def graph6_encode(G: Graph) -> str:
    """Standard graph6 line for a graph with at most 62 vertices.

    Size byte is ``63 + n``; the code bits, zero-padded on the right to a
    multiple of 6, follow in 6-bit groups, each offset by 63 into the
    printable range.
    """
    n = G.n
    if n > _MAX_GRAPH6_N:
        raise Graph6Error(f"graph6 output limited to {_MAX_GRAPH6_N} vertices, got {n}")
    nbits = n * (n - 1) // 2
    groups = (nbits + 5) // 6
    bits = int.from_bytes(_code_from_order(G.adj, range(n))[1:], "big") << (6 * groups - nbits)
    body = (chr(63 + (bits >> 6 * i & 63)) for i in reversed(range(groups)))
    return chr(63 + n) + "".join(body)


def graph6_decode(text: str) -> Graph:
    """Decode one graph6 line (strict: padding bits must be zero)."""
    line = text.rstrip("\n")
    if not line:
        raise Graph6Error("empty graph6 line")
    for ch in line:
        if not 63 <= ord(ch) <= 126:
            raise Graph6Error(f"non-printable graph6 character {ch!r}")
    if line[0] == "~":
        raise Graph6Error("extended graph6 size prefix '~' not supported (n > 62)")
    n = ord(line[0]) - 63
    nbits = n * (n - 1) // 2
    expect = (nbits + 5) // 6
    body = line[1:]
    if len(body) < expect:
        raise Graph6Error(
            f"truncated graph6 body: size byte promises {expect} characters, got {len(body)}"
        )
    if len(body) > expect:
        raise Graph6Error(f"trailing garbage after graph6 body: {body[expect:]!r}")
    bits = 0
    for ch in body:
        bits = (bits << 6) | (ord(ch) - 63)
    pad = 6 * expect - nbits
    if pad and bits & ((1 << pad) - 1):
        raise Graph6Error("nonzero padding bits in graph6 body")
    bits >>= pad
    return _graph_from_code(bytes([n]) + bits.to_bytes((nbits + 7) // 8, "big"))


def edge_list_encode(G: Graph) -> str:
    """Plain text: first line the vertex count, then one ``u v`` per edge."""
    lines = [str(G.n)]
    lines.extend(f"{u} {v}" for u, v in G.edges)
    return "\n".join(lines) + "\n"


def edge_list_decode(text: str) -> Graph:
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise EdgeListError("empty edge-list input")
    try:
        n = int(lines[0])
    except ValueError as exc:
        raise EdgeListError(f"bad vertex-count line {lines[0]!r}") from exc
    edges = []
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 2:
            raise EdgeListError(f"bad edge line {ln!r}")
        try:
            edges.append((int(parts[0]), int(parts[1])))
        except ValueError as exc:
            raise EdgeListError(f"bad edge line {ln!r}") from exc
    return Graph(n, edges)


def detect_and_decode(text: str) -> Graph:
    """Auto-detect format: graph6 if the first byte is >= '?', else edge list.

    Graph6 input must hold exactly one graph: a second non-empty line
    raises ``Graph6Error`` rather than being dropped.
    """
    stripped = text.strip()
    if not stripped:
        raise EdgeListError("empty graph input")
    if ord(stripped[0]) >= 63:
        first, *rest = stripped.splitlines()
        if any(ln.strip() for ln in rest):
            raise Graph6Error("graph6 input holds more than one line")
        return graph6_decode(first)
    return edge_list_decode(stripped)


def labels_encode(labels: dict[str, int | tuple[int, ...]]) -> str:
    """Role sidecar, one ``role=v1 v2 ...`` line per role, in mapping order."""
    lines = []
    for role, val in labels.items():
        if isinstance(val, int):
            lines.append(f"{role}={val}")
        else:
            lines.append(f"{role}={' '.join(str(v) for v in val)}")
    return "\n".join(lines) + "\n"


_SCALAR_ROLES = frozenset({"a1", "a2", "hub"})
_ROLE = re.compile(r"a1|a2|hub|[ABCDQ]|R[1-9][0-9]*")


def labels_decode(text: str) -> dict[str, int | tuple[int, ...]]:
    """Parse a role sidecar; a line whose role no family builder writes is bad."""
    labels: dict[str, int | tuple[int, ...]] = {}
    for ln in text.splitlines():
        ln = ln.strip()
        if not ln:
            continue
        role, sep, rest = ln.partition("=")
        if not sep:
            raise EdgeListError(f"bad label line {ln!r}")
        role = role.strip()
        if not _ROLE.fullmatch(role):
            raise EdgeListError(f"bad label line {ln!r}")
        if role in labels:
            raise EdgeListError(f"repeated role {role!r}")
        try:
            values = tuple(int(p) for p in rest.split())
        except ValueError as exc:
            raise EdgeListError(f"bad label line {ln!r}") from exc
        if role in _SCALAR_ROLES:
            if len(values) != 1:
                raise EdgeListError(f"role {role!r} takes exactly one vertex")
            labels[role] = values[0]
        else:
            labels[role] = values
    return labels
