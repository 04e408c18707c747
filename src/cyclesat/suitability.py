"""Checkers for path-suitable core graphs and a miner for minimal ones.

A core graph with two special vertices a1, a2 qualifies for the path-block
constructions when

* S1: it is C_k-semisaturated,
* S2: a1 and a2 are joined by paths of every length 1..k-2, and
* S3: every other vertex q can be hit from a1 or a2 with prescribed
  lengths: for each split m1 + m2 = k (2 <= m_i <= k-2) some a_i reaches q
  by a path of length m_i.

The extended variant keeps S1-S2 and replaces S3 by splits m1 + m2 = k
(3 <= m_i <= k-3) and m1 + m2 = k + 2 (4 <= m_i <= k-4); empty ranges are
vacuously satisfied.  For each fixed (q, m1, m2) the disjunction over the
two special vertices is what is required; the satisfying side may differ
from triple to triple.  A report carries verdicts, not paths: the failing
S1 non-edge, the S2 lengths with no a1-a2 path and the S3 triples neither
special vertex serves.

S1 belongs to the core and S2-S3 to the pair, so the miner checks S1 once
per class and skips the pairs of a class that fails it: none can pass.  It
tries the pairs of the others in ascending (a1, a2) order and stops at the
first passer, so it finds the same classes as a check of every pair.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cycles import exists_path_of_length, paths_of_length
from .graphs import Graph, LabeledGraph, _check_int
from .oracle import SearchStats, scan_strata
from .saturation import is_semisaturated


@dataclass(frozen=True)
class SuitabilityReport:
    mode: str  # "k-suitable" | "kk2-suitable"
    k: int
    s1_failing_nonedge: tuple[int, int] | None  # None exactly when S1 holds
    s2_missing: tuple[int, ...]  # lengths with no a1-a2 path
    s3_failures: tuple[tuple[int, int, int], ...]  # (q, m1, m2) neither side serves

    @property
    def suitable(self) -> bool:
        return self.s1_failing_nonedge is None and not self.s2_missing and not self.s3_failures

    def summary(self) -> str:
        parts = []
        if self.s1_failing_nonedge is not None:
            parts.append(f"S1 fails at non-edge {self.s1_failing_nonedge}")
        if self.s2_missing:
            parts.append(f"S2 misses lengths {list(self.s2_missing)}")
        if self.s3_failures:
            parts.append(f"S3 fails on {len(self.s3_failures)} (q, m1, m2) triples")
        return "; ".join(parts) if parts else "suitable"


# Each suitability mode and the smallest k it is defined for.
_MIN_K = {"k-suitable": 4, "kk2-suitable": 6}


def split_pairs(k: int, mode: str) -> list[tuple[int, int]]:
    """The (m1, m2) splits a core must serve, per suitability mode.

    Raises ValueError for an unknown mode, a bool or non-int k, or a k
    below the mode's minimum.
    """
    if mode not in _MIN_K:
        raise ValueError(f"unknown suitability mode {mode!r}")
    _check_int(k, "cycle length", 3)
    if k < _MIN_K[mode]:
        raise ValueError(f"mode {mode} needs k >= {_MIN_K[mode]}, got k={k}")
    if mode == "k-suitable":
        return [(m1, k - m1) for m1 in range(2, k - 1)]
    # m1 + m2 = k with 3 <= m_i <= k-3, then m1 + m2 = k + 2 with 4 <= m_i <= k-4
    return [(m1, k - m1) for m1 in range(3, k - 2)] + [
        (m1, k + 2 - m1) for m1 in range(6, k - 3)
    ]


def _report(
    G: Graph,
    a1: int,
    a2: int,
    k: int,
    mode: str,
    pairs: list[tuple[int, int]],
    s1_failing_nonedge: tuple[int, int] | None,
) -> SuitabilityReport:
    """Evaluate S2 and S3 for the special pair (a1, a2), given G's S1 outcome."""
    s2_missing = [ell for ell in range(1, k - 1) if exists_path_of_length(G, a1, a2, ell) is None]
    others = [q for q in range(G.n) if q not in (a1, a2)]
    failing = set()
    for m1, m2 in pairs:
        reached = paths_of_length(G, a1, others, m1)
        reached |= paths_of_length(G, a2, [q for q in others if q not in reached], m2)
        failing.update((q, m1, m2) for q in others if q not in reached)
    s3_failures = [(q, m1, m2) for q in others for m1, m2 in pairs if (q, m1, m2) in failing]
    return SuitabilityReport(mode, k, s1_failing_nonedge, tuple(s2_missing), tuple(s3_failures))


def _core_report(core: LabeledGraph, k: int, mode: str) -> SuitabilityReport:
    """Check mode and k, then the special pair, then S1, then S2-S3."""
    pairs = split_pairs(k, mode)
    a1, a2 = core.special_pair()
    semi = is_semisaturated(core.graph, k, want_certificate=False)
    return _report(core.graph, a1, a2, k, mode, pairs, semi.failing_nonedge)


def is_k_suitable(core: LabeledGraph, k: int) -> SuitabilityReport:
    """Verdicts for the plain suitability conditions S1-S3."""
    return _core_report(core, k, "k-suitable")


def is_kk2_suitable(core: LabeledGraph, k: int) -> SuitabilityReport:
    """Verdicts for the extended conditions S1, S2, and the two-split S3."""
    return _core_report(core, k, "kk2-suitable")


@dataclass(frozen=True)
class MiningResult:
    k: int
    mode: str
    status: str  # "exact" | "lower-bound-only"
    edge_count: int  # exact minimum, or the proven floor when budget ran out
    witness: LabeledGraph | None
    stats: SearchStats


DEFAULT_MINE_CEILING = 8


def mine_suitable(
    k: int,
    mode: str = "k-suitable",
    ceiling: int | None = None,
    budget_seconds: float | None = None,
) -> MiningResult:
    """Minimum edge count of a k-vertex core passing the given mode.

    Exhausts isomorphism classes of k-vertex graphs stratum by stratum in
    ascending edge count and tries every special pair, so the first stratum
    with a suitable class gives the minimum.  The witness is the suitable
    class of that stratum with the least minimal code, in its minimal-code
    form, with its first suitable pair in ascending (a1, a2) order.
    ``budget_seconds=None`` sets no time limit; a blown budget yields
    ``status="lower-bound-only"`` with no witness.
    """
    pairs = split_pairs(k, mode)
    cap = DEFAULT_MINE_CEILING if ceiling is None else ceiling

    def suitable_pair(G: Graph) -> tuple[int, int] | None:
        """G's first suitable special pair in ascending (a1, a2) order, if any."""
        if is_semisaturated(G, k, want_certificate=False).holds:
            for a1 in range(k):
                for a2 in range(a1 + 1, k):
                    if _report(G, a1, a2, k, mode, pairs, None).suitable:
                        return a1, a2
        return None

    # No floor of its own: the scan starts at k - 1, the size of a tree.
    status, m, form, stats = scan_strata(k, 0, suitable_pair, cap, budget_seconds)
    witness = None
    if form is not None:
        a1, a2 = suitable_pair(form)
        witness = LabeledGraph(form, {"a1": a1, "a2": a2})
    return MiningResult(k, mode, status, m, witness, stats)
