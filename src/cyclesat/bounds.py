"""Closed-form saturation/semisaturation bounds, evaluated exactly.

Every bound is stored as an exact rational together with its kind (strict
or weak, lower or upper, or exact), the regime in which it applies, and
whether it may participate in automatic consistency checks.  Floor and
ceiling are applied exactly where the closed forms carry them; no floating
point enters any comparison.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Iterable

from .graphs import _check_int

SAT = "sat"
SSAT = "ssat"

KIND_LOWER_STRICT = "lower-strict"
KIND_LOWER = "lower"
KIND_UPPER = "upper"
KIND_UPPER_STRICT = "upper-strict"
KIND_EXACT = "exact"


def _check_mode(mode: str) -> None:
    if mode not in (SAT, SSAT):
        raise ValueError(f"mode must be {SAT!r} or {SSAT!r}, got {mode!r}")


@dataclass(frozen=True)
class BoundEntry:
    name: str
    kind: str
    mode: str  # which quantity it bounds: "sat" or "ssat"
    value: Fraction
    applicable: bool
    note: str = ""
    in_consistency: bool = True


@dataclass(frozen=True)
class BoundTable:
    n: int
    k: int
    entries: tuple[BoundEntry, ...]

    def __getitem__(self, name: str) -> BoundEntry:
        for e in self.entries:
            if e.name == name:
                return e
        raise KeyError(name)

    def lower_floor(self, mode: str) -> int:
        """Smallest integer edge count consistent with applicable lower bounds.

        This is the least exact value of ``mode`` that passes every lower
        bound ``check_consistency`` applies to it; structural bounds
        (min-degree conditioned) are excluded.
        """
        _check_mode(mode)
        floor = 0
        for e in self.entries:
            rel = _relation(e, mode, "exact")
            if rel == ">":
                floor = max(floor, math.floor(e.value) + 1)
            elif rel == ">=":
                floor = max(floor, math.ceil(e.value))
        return floor


def known_exact(n: int, k: int) -> int | None:
    """Exact saturation number when a closed form is known for (n, k)."""
    _check_int(n, "n")
    _check_int(k, "k")
    if k == 3 and n >= 3:
        return n - 1
    if k == 4 and n >= 5:
        return (3 * n - 5) // 2
    if k == 5 and n >= 21:
        return math.ceil(Fraction(10 * (n - 1), 7))
    return None


def _epsilon(k: int) -> int | None:
    if k % 2 == 0 and k >= 10:
        return 2
    if k % 2 == 1 and k >= 17:
        return 3
    return None


def eval_bounds(n: int, k: int) -> BoundTable:
    """All bound values for one (n, k), each self-gated on its regime."""
    _check_int(n, "n")
    _check_int(k, "k")
    if n < 1 or k < 3:
        raise ValueError(f"need n >= 1 and k >= 3, got n={n}, k={k}")
    F = Fraction
    entries: list[BoundEntry] = []

    main_regime = k >= 7 and n >= 2 * k - 5
    entries.append(
        BoundEntry(
            "sat-lower",
            KIND_LOWER_STRICT,
            SAT,
            F(k + 3, k + 2) * n - 1,
            main_regime,
        )
    )
    entries.append(
        BoundEntry(
            "sat-upper",
            KIND_UPPER_STRICT,
            SAT,
            F(k - 3, k - 4) * n + comb(k - 4, 2) if k >= 5 else F(0),
            main_regime,
        )
    )
    entries.append(
        BoundEntry(
            "sat-lower-sharp",
            KIND_LOWER_STRICT,
            SAT,
            F(k * k, k * k - k + 2) * n - 1,
            k >= 5 and n >= k,
        )
    )
    entries.append(
        BoundEntry(
            "ssat-lower",
            KIND_LOWER_STRICT,
            SSAT,
            F(2 * k - 1, 2 * k - 2) * n - 2,
            n >= k >= 6,
        )
    )
    entries.append(
        BoundEntry(
            "ssat-upper",
            KIND_UPPER_STRICT,
            SSAT,
            F(2 * k - 9, 2 * k - 10) * n + (k - 1) if k >= 6 else F(0),
            n >= k >= 6,
        )
    )
    entries.append(
        BoundEntry(
            "prior-sat-lower",
            KIND_LOWER,
            SAT,
            F(2 * k + 9, 2 * k + 8) * n,
            k >= 5 and n >= k,
        )
    )
    eps = _epsilon(k)
    entries.append(
        BoundEntry(
            "prior-sat-upper",
            KIND_UPPER,
            SAT,
            F(k - eps + 2, k - eps) * n if eps is not None else F(0),
            eps is not None and n >= k,
            note="coefficient only; additive term of order k^2 unspecified",
            in_consistency=False,
        )
    )
    entries.append(
        BoundEntry(
            "ssat-upper-c5",
            KIND_UPPER,
            SSAT,
            F(math.ceil(F(11 * (n - 1), 8))),
            k == 5 and n >= 5,
        )
    )
    entries.append(
        BoundEntry(
            "ssat-upper-h2",
            KIND_UPPER,
            SSAT,
            F(n + (n - 7) // (k - 3) + k - 3) if k >= 4 else F(0),
            k >= 4 and n >= k + 4,
        )
    )
    entries.append(
        BoundEntry(
            "ssat-upper-c6",
            KIND_UPPER,
            SSAT,
            F(math.ceil(F(4 * n, 3))),
            k == 6 and n >= 10,
        )
    )
    entries.append(
        BoundEntry(
            "ssat-upper-h3",
            KIND_UPPER,
            SSAT,
            F(math.ceil(F(2 * k - 9, 2 * k - 10) * (n - k)) + 2 * k - 2)
            if k >= 6
            else F(0),
            k >= 6 and n >= k,
        )
    )
    entries.append(
        BoundEntry(
            "ssat-mindeg2-lower",
            KIND_LOWER,
            SSAT,
            F(k, k - 1) * n - F(k + 1, k - 1),
            k >= 5 and n >= k,
            note="requires minimum degree 2",
            in_consistency=False,
        )
    )
    exact = known_exact(n, k)
    entries.append(
        BoundEntry(
            "sat-exact",
            KIND_EXACT,
            SAT,
            F(exact) if exact is not None else F(0),
            exact is not None,
        )
    )
    entries.append(
        BoundEntry(
            "sat-upper-c6",
            KIND_UPPER,
            SAT,
            F(3, 2) * n,
            k == 6 and n >= 11,
        )
    )
    return BoundTable(n, k, tuple(entries))


# -- consistency checking ----------------------------------------------------


@dataclass(frozen=True)
class Observation:
    """A measured value: an exact minimum or a construction's edge count."""

    source: str
    mode: str  # "sat" | "ssat"
    kind: str  # "exact" | "upper-witness"
    value: int

    def __post_init__(self) -> None:
        _check_mode(self.mode)
        if self.kind not in ("exact", "upper-witness"):
            raise ValueError(f"kind must be 'exact' or 'upper-witness', got {self.kind!r}")
        _check_int(self.value, "value", 0)


@dataclass(frozen=True)
class Finding:
    observation: Observation
    entry: BoundEntry
    relation: str
    ok: bool


@dataclass(frozen=True)
class ConsistencyReport:
    n: int
    k: int
    findings: tuple[Finding, ...]

    @property
    def consistent(self) -> bool:
        return all(f.ok for f in self.findings)

    def violations(self) -> list[Finding]:
        return [f for f in self.findings if not f.ok]


_COMPARE = {
    ">": operator.gt,
    ">=": operator.ge,
    "<": operator.lt,
    "<=": operator.le,
    "==": operator.eq,
}


def _relation(e: BoundEntry, obs_mode: str, obs_kind: str) -> str | None:
    """How an observation must compare with ``e``; None when ``e`` does not apply.

    sat >= ssat, so semisaturation lower bounds also bound sat values and
    saturation upper bounds also cap ssat values.  Construction witnesses
    face only lower bounds, and an exact formula is one for them.
    """
    if not (e.applicable and e.in_consistency):
        return None
    if e.kind in (KIND_LOWER_STRICT, KIND_LOWER):
        if e.mode in (obs_mode, SSAT):
            return ">" if e.kind == KIND_LOWER_STRICT else ">="
    elif e.kind in (KIND_UPPER_STRICT, KIND_UPPER):
        if obs_kind == "exact" and e.mode in (obs_mode, SAT):
            return "<" if e.kind == KIND_UPPER_STRICT else "<="
    elif e.kind == KIND_EXACT and e.mode == obs_mode:
        return "==" if obs_kind == "exact" else ">="
    return None


def check_consistency(
    n: int, k: int, observations: Iterable[Observation]
) -> ConsistencyReport:
    """Compare observed values against every applicable bound.

    Exact observations must sit strictly above strict lower bounds, at or
    above weak ones, strictly below strict upper bounds, at or below weak
    ones, and equal any exact formula.  Construction witnesses only face
    the lower bounds (they may exceed a better construction's upper bound).
    Violations are reported as findings, never raised.
    """
    table = eval_bounds(n, k)
    findings: list[Finding] = []
    for obs in observations:
        v = obs.value
        for e in table.entries:
            rel = _relation(e, obs.mode, obs.kind)
            if rel is not None:
                findings.append(
                    Finding(obs, e, f"{v} {rel} {e.value}", _COMPARE[rel](v, e.value))
                )
    return ConsistencyReport(n, k, tuple(findings))
