"""The benchmark's workloads: inputs, the timed task list, and the output check.

Each workload is three functions:

* ``make_inputs(seed)`` builds the inputs; it is part of set-up time;
* ``run(api, inputs)`` is the timed task list.  It calls the library only
  through ``api`` (the ``cyclesat`` package), so a traced run sees the
  wrapped functions;
* ``check(api, inputs, outputs, goldens)`` re-checks the outputs outside
  the timed region and returns ``(attempted, failures)``: the number of
  checks made and a message for each one that failed.

Only ``greedy-structure`` uses the seed; the other inputs are fixed by the
paper.  Why each workload is here is written in ``bench/README.md``.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from typing import Any, Callable


@dataclass(frozen=True)
class Workload:
    make_inputs: Callable[[int], Any]
    run: Callable[[Any, Any], Any]
    check: Callable[[Any, Any, Any, dict], tuple[int, list[str]]]


class _Checks:
    """Counts checks and keeps a message for each failed one."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def expect(self, ok: bool, message: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(message)

    def result(self) -> tuple[int, list[str]]:
        return self.attempted, self.failures


# -- h1-certify -------------------------------------------------------------


def _h1_inputs(seed: int) -> list[tuple[int, int]]:
    return [
        (k, (k - 1) + r + t * (k - 4))
        for k in range(7, 11)
        for t in range(1, 6)
        for r in range(0, k - 4)
    ]


def _h1_run(api, inputs):
    out = []
    for k, n in inputs:
        G = api.build_h1(k, n).graph
        verdict = api.is_saturated(G, k, want_certificate=True)
        table = api.eval_bounds(n, k)
        decoded = api.graph6_decode(api.graph6_encode(G))
        text = verdict.certificate.to_text() if verdict.certificate else ""
        reparsed = api.Certificate.from_text(text) if text else None
        out.append((G, verdict, table, decoded, text, reparsed))
    return out


def _h1_check(api, inputs, outputs, goldens):
    c = _Checks()
    c.expect(len(outputs) == len(inputs), "task list incomplete")
    for (k, n), (G, verdict, table, decoded, text, reparsed) in zip(inputs, outputs):
        tag = f"h1 k={k} n={n}"
        c.expect(verdict.holds, f"{tag}: not saturated")
        cert = verdict.certificate
        c.expect(cert is not None and cert.validate(G) == [], f"{tag}: certificate invalid")
        lo, hi = table["sat-lower"], table["sat-upper"]
        c.expect(
            lo.applicable and hi.applicable and lo.value < G.edge_count < hi.value,
            f"{tag}: {G.edge_count} edges outside the sat bounds",
        )
        c.expect(decoded == G, f"{tag}: graph6 round trip changed the graph")
        c.expect(reparsed == cert, f"{tag}: certificate text round trip changed it")
    digest = hashlib.sha256("".join(o[4] for o in outputs).encode()).hexdigest()
    c.expect(
        digest == goldens["h1-certify"]["certificate_sha256"],
        f"certificate digest {digest} differs from the golden",
    )
    return c.result()


# -- oracle-sat8 ------------------------------------------------------------


def _oracle_run(api, inputs):
    return api.exact_min(8, 4, "sat")


def _oracle_check(api, inputs, result, goldens):
    golden = goldens["oracle-sat8"]
    c = _Checks()
    c.expect(result.status == "exact", f"status {result.status}")
    c.expect(result.value == golden["value"], f"value {result.value}")
    witness = result.witness
    code = api.graph6_encode(witness) if witness is not None else None
    c.expect(code == golden["witness_graph6"], f"witness {code}")
    c.expect(
        witness is not None and api.is_saturated(witness, 4, want_certificate=False).holds,
        "witness is not C4-saturated",
    )
    return c.result()


# -- mine-7 -----------------------------------------------------------------


def _mine_run(api, inputs):
    return api.mine_suitable(7, "k-suitable")


def _mine_check(api, inputs, result, goldens):
    golden = goldens["mine-7"]
    c = _Checks()
    c.expect(result.status == "exact", f"status {result.status}")
    c.expect(result.edge_count == golden["value"], f"edge count {result.edge_count}")
    witness = result.witness
    code = api.graph6_encode(witness.graph) if witness is not None else None
    c.expect(code == golden["witness_graph6"], f"witness {code}")
    c.expect(
        witness is not None and api.is_k_suitable(witness, 7).suitable,
        "witness fails the full suitability report",
    )
    return c.result()


# -- greedy-structure -------------------------------------------------------

# Each (n, k) cell gets the same number of instances, so the seed moves only
# the edge orders, not the mix of sizes.  k = 7 is left out: greedy C7-free
# graphs are sometimes dense and near-bipartite, and their freeness proofs
# make one instance cost up to 50 times its cell's median, so the workload's
# time would depend more on the seed than on the code (see bench/README.md).
GREEDY_CELLS = [(n, k) for k in (5, 6, 8) for n in range(12, 21)]
GREEDY_PER_CELL = 16


def _greedy_inputs(seed: int) -> list[tuple[int, int, list[tuple[int, int]]]]:
    rng = random.Random(seed)
    inputs = []
    for _ in range(GREEDY_PER_CELL):
        for n, k in GREEDY_CELLS:
            order = [(u, v) for u in range(n) for v in range(u + 1, n)]
            rng.shuffle(order)
            inputs.append((n, k, order))
    return inputs


def _greedy_run(api, inputs):
    out = []
    for n, k, order in inputs:
        G = api.greedy_saturate(n, k, order)
        verdict = api.is_saturated(G, k, want_certificate=True)
        report = api.check_structure(G, k, checks=("i", "ii", "iii", "iv", "v", "vi"))
        core, _ = api.strip_leaves(G)
        cover = api.check_structure(core, k, checks=("cycle-cover",))
        out.append((G, verdict, report, cover))
    return out


def _greedy_check(api, inputs, outputs, goldens):
    c = _Checks()
    c.expect(len(outputs) == len(inputs), "task list incomplete")
    for i, ((n, k, _), (G, verdict, report, cover)) in enumerate(zip(inputs, outputs)):
        tag = f"instance {i} n={n} k={k}"
        c.expect(verdict.holds, f"{tag}: not saturated")
        cert = verdict.certificate
        c.expect(cert is not None and cert.validate(G) == [], f"{tag}: certificate invalid")
        c.expect(report.ok, f"{tag}: {report.violations}")
        c.expect(cover.ok, f"{tag}: {cover.violations}")
    return c.result()


def _no_inputs(seed: int) -> None:
    return None


WORKLOADS: dict[str, Workload] = {
    "h1-certify": Workload(_h1_inputs, _h1_run, _h1_check),
    "oracle-sat8": Workload(_no_inputs, _oracle_run, _oracle_check),
    "mine-7": Workload(_no_inputs, _mine_run, _mine_check),
    "greedy-structure": Workload(_greedy_inputs, _greedy_run, _greedy_check),
}
