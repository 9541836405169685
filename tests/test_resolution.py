"""Betti-table ledger, K-polynomials, dualities, and character identities."""

from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from ternary_cubics import ideals, resolution as rs


def test_tables_load_all_loci():
    t = rs.tables()
    assert set(t) == {"equiv", "neq", "y", "delta", "tact", "empty"}
    for locus, entry in t.items():
        assert entry["dim"] == {"equiv": 2, "neq": 4, "y": 5, "delta": 6,
                                "tact": 6, "empty": 7}[locus]


def test_known_betti_entries():
    assert rs.betti_table("equiv")[(2, 0)] == 27
    assert rs.betti_table("equiv")[(2, 1)] == 105
    assert rs.betti_table("neq")[(3, 0)] == 20
    assert rs.betti_table("neq")[(3, 1)] == 45
    assert rs.betti_table("delta")[(4, 0)] == 35
    assert rs.betti_table("delta")[(4, 1)] == 119
    assert rs.betti_table("empty")[(8, 0)] == 35
    assert rs.betti_table("empty")[(8, 1)] == 70
    assert rs.betti_table("tact")[(4, 0)] == 1


def test_ledger_dims_all_consistent():
    report = rs.ledger_dim_check()
    assert report
    assert all(row["ok"] for row in report)


def test_numerator_equiv():
    assert rs.numerator("equiv") == [1, 0, -27, 105, -189, 189, -105, 27, 0, -1]


def test_hilbert_from_numerator_anchors():
    assert rs.hilbert_from_numerator("equiv", 0) == 1
    assert rs.hilbert_from_numerator("equiv", 1) == 10
    assert rs.hilbert_from_numerator("equiv", 2) == 28
    assert rs.hilbert_from_numerator("equiv", 3) == 55
    assert rs.hilbert_from_numerator("delta", 4) == 680
    assert rs.hilbert_from_numerator("neq", 4) == 532


def test_numerator_multiplicity_is_codimension():
    for locus, dim in [("equiv", 2), ("neq", 4), ("y", 5), ("delta", 6),
                       ("tact", 6), ("empty", 7)]:
        assert rs.numerator_multiplicity(locus) == 9 - dim


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 9),
       st.lists(st.integers(-50, 50), min_size=1, max_size=8).filter(sum))
def test_numerator_multiplicity_is_the_vanishing_order(k, q):
    # N = (1 - t)^k q(t) with q(1) != 0 vanishes to order exactly k at t = 1
    n = [0] * (k + len(q))
    for j in range(k + 1):
        for i, x in enumerate(q):
            n[i + j] += (-1) ** j * comb(k, j) * x
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rs, "numerator", lambda locus: n)
        assert rs.numerator_multiplicity("equiv") == k


def test_hilbert_consistency_small():
    report = rs.hilbert_consistency("equiv", lmax=4, seed=1)
    assert all(row["ok"] for row in report)
    report = rs.hilbert_consistency("neq", lmax=4, seed=2)
    assert all(row["ok"] for row in report)


def test_duality_checks():
    checks = rs.duality_check()
    assert checks
    assert all(c["ok"] for c in checks)


def test_eagon_northcott():
    report = rs.eagon_northcott_check()
    assert len(report) == 4
    assert all(row["ok"] for row in report)


@pytest.mark.parametrize("name", rs.IDENTITY_NAMES)
def test_spectral_identity(name):
    assert rs.spectral_identity(name)["ok"], name


def test_unknown_identity():
    with pytest.raises(ValueError):
        rs.spectral_identity("nope")


def test_betti_generators_match_computation():
    # the ledger's column-0 entries agree with the computed graded kernels
    for locus, j, expect in [("equiv", 2, 27), ("neq", 3, 20), ("y", 3, 20),
                             ("delta", 4, 35), ("tact", 4, 1)]:
        assert rs.betti_table(locus)[(j, 0)] == expect
        assert ideals.graded_kernel(locus, j).dimension() == expect
