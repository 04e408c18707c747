import math
from fractions import Fraction

import pytest

from cyclesat.bounds import (
    KIND_LOWER,
    KIND_LOWER_STRICT,
    Observation,
    check_consistency,
    eval_bounds,
    known_exact,
)
from cyclesat.families import build_h1


def test_main_bounds_at_9_7():
    table = eval_bounds(9, 7)
    assert table["sat-lower"].value == 9
    assert table["sat-upper"].value == 15
    assert table["sat-lower"].applicable and table["sat-upper"].applicable
    assert 9 < build_h1(7, 9).graph.edge_count < 15


def test_semisat_bounds_at_20_6():
    table = eval_bounds(20, 6)
    assert table["ssat-lower"].value == 20
    assert table["ssat-upper"].value == 35
    assert table["ssat-upper-c6"].value == 27  # ceil(80/3)


def test_sharp_lower_at_20_5():
    table = eval_bounds(20, 5)
    entry = table["sat-lower-sharp"]
    assert entry.applicable
    assert entry.value == Fraction(25, 22) * 20 - 1 == Fraction(239, 11)
    # smallest integer strictly above
    assert math.floor(entry.value) + 1 == 22


def test_values_are_exact_rationals():
    for e in eval_bounds(33, 9).entries:
        assert isinstance(e.value, Fraction)


def test_known_exact_values():
    assert known_exact(5, 4) == 5
    assert known_exact(7, 4) == 8
    assert known_exact(21, 5) == 29  # ceil(200/7)
    assert known_exact(6, 7) is None
    assert known_exact(4, 4) is None  # below the formula's regime
    assert known_exact(3, 3) == 2
    assert known_exact(20, 5) is None  # formula starts at n = 21


def test_epsilon_regimes():
    assert eval_bounds(30, 10)["prior-sat-upper"].applicable
    assert eval_bounds(30, 10)["prior-sat-upper"].value == Fraction(10, 8) * 30
    assert eval_bounds(30, 17)["prior-sat-upper"].applicable
    assert eval_bounds(30, 17)["prior-sat-upper"].value == Fraction(16, 14) * 30
    assert not eval_bounds(30, 9)["prior-sat-upper"].applicable
    assert not eval_bounds(30, 15)["prior-sat-upper"].applicable
    assert not eval_bounds(30, 8)["prior-sat-upper"].applicable


def test_prior_upper_not_in_consistency():
    entry = eval_bounds(30, 10)["prior-sat-upper"]
    assert not entry.in_consistency
    assert "unspecified" in entry.note


def test_main_lower_below_upper_across_regime():
    for k in range(7, 13):
        for n in range(2 * k - 5, 8 * k):
            table = eval_bounds(n, k)
            assert table["sat-lower"].value < table["sat-upper"].value


def test_h2_bound_matches_c6_closed_form_within_one():
    for n in range(10, 201):
        table = eval_bounds(n, 6)
        h2 = table["ssat-upper-h2"]
        cor = table["ssat-upper-c6"]
        if h2.applicable and cor.applicable:
            assert abs(h2.value - cor.value) <= 1, n


def test_c5_semisat_strictly_cheaper_than_saturation():
    for n in range(21, 201):
        c5 = eval_bounds(n, 5)["ssat-upper-c5"]
        assert c5.applicable
        assert c5.value < known_exact(n, 5)


def test_regime_gating():
    table = eval_bounds(8, 7)  # n < 2k-5 = 9
    assert not table["sat-lower"].applicable
    assert not table["sat-upper"].applicable
    table = eval_bounds(30, 5)  # k < 6: the general semisat bounds gate off
    assert not table["ssat-lower"].applicable
    assert not table["ssat-upper"].applicable
    assert table["ssat-upper-c5"].applicable


def test_lower_floor():
    # strict lower 9 at (9, 7) forces at least 10 edges
    assert eval_bounds(9, 7).lower_floor("sat") == 10
    # ssat floors never use sat-only bounds
    assert eval_bounds(9, 7).lower_floor("ssat") <= eval_bounds(9, 7).lower_floor(
        "sat"
    )


def test_lower_floor_is_least_value_passing_lower_bounds():
    def passes(n, k, mode, v):
        report = check_consistency(n, k, [Observation("probe", mode, "exact", v)])
        return all(
            f.ok
            for f in report.findings
            if f.entry.kind in (KIND_LOWER_STRICT, KIND_LOWER)
        )

    for n in range(1, 40):
        for k in range(3, 15):
            table = eval_bounds(n, k)
            for mode in ("sat", "ssat"):
                floor = table.lower_floor(mode)
                assert passes(n, k, mode, floor), (n, k, mode)
                assert floor == 0 or not passes(n, k, mode, floor - 1), (n, k, mode)


def test_lower_floor_rejects_unknown_mode():
    with pytest.raises(ValueError, match="mode must be 'sat' or 'ssat', got 'bogus'"):
        eval_bounds(9, 7).lower_floor("bogus")


# -- consistency --------------------------------------------------------------


def test_h1_witness_is_consistent():
    h = build_h1(7, 9)
    report = check_consistency(
        9, 7, [Observation("h1", "sat", "upper-witness", h.graph.edge_count)]
    )
    assert report.consistent


def test_exact_value_consistent_with_formula():
    report = check_consistency(5, 4, [Observation("search", "sat", "exact", 5)])
    assert report.consistent
    assert any(f.entry.name == "sat-exact" for f in report.findings)


def test_synthetic_violation_detected():
    report = check_consistency(9, 7, [Observation("fake", "sat", "upper-witness", 8)])
    assert not report.consistent
    bad = report.violations()
    assert any(f.entry.name == "sat-lower" for f in bad)


def test_boundary_value_fails_strict_lower():
    # exactly the strict bound value must count as a violation
    report = check_consistency(9, 7, [Observation("fake", "sat", "upper-witness", 9)])
    assert not report.consistent


def test_exact_value_respects_upper_bounds():
    # an exact value above a strict construction bound would be flagged
    report = check_consistency(9, 7, [Observation("fake", "sat", "exact", 15)])
    assert not report.consistent


def test_bound_table_lookup_of_an_unknown_name_raises():
    with pytest.raises(KeyError, match="nope"):
        eval_bounds(9, 7)["nope"]


def test_eval_bounds_input_validation():
    with pytest.raises(ValueError):
        eval_bounds(0, 7)
    with pytest.raises(ValueError):
        eval_bounds(9, 2)


@pytest.mark.parametrize(
    "mode,kind,value,message",
    [
        ("bogus", "exact", 3, "mode must be 'sat' or 'ssat', got 'bogus'"),
        ("sat", "bogus-kind", 3, "kind must be 'exact' or 'upper-witness', got 'bogus-kind'"),
        ("sat", "exact", 11.5, "value must be non-negative, got 11.5"),
        ("sat", "exact", True, "value must be non-negative, got True"),
    ],
)
def test_observation_rejects_unknown_mode_or_kind(mode, kind, value, message):
    # an unknown mode used to be checked against both modes' bounds, an
    # unknown kind was taken for a construction witness, and a fractional
    # value was compared with the bounds as if it were an edge count
    with pytest.raises(ValueError, match=message):
        check_consistency(9, 7, [Observation("x", mode, kind, value)])
