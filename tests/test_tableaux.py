"""Two-row tableaux, harmonic projection, and the invariant pairing."""

import ast
import hashlib
from fractions import Fraction
from itertools import combinations_with_replacement
from math import lcm
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ternary_cubics import brackets as br
from ternary_cubics import characters as ch
from ternary_cubics import linalg
from ternary_cubics import tableaux as tb
from ternary_cubics.poly import Poly, mono_mul, monomial


def ssyt_count(m, n):
    """Independent brute-force count of SSYT on shape (m+n, n), entries 1..3."""
    from itertools import product

    count = 0
    for row1 in product((1, 2, 3), repeat=m + n):
        if any(row1[i] > row1[i + 1] for i in range(m + n - 1)):
            continue
        for row2 in product((1, 2, 3), repeat=n):
            if any(row2[i] > row2[i + 1] for i in range(n - 1)):
                continue
            if all(row1[i] < row2[i] for i in range(n)):
                count += 1
    return count


@pytest.mark.parametrize("m,n", [(0, 0), (1, 0), (0, 1), (2, 1), (3, 2), (4, 4)])
def test_enumeration_against_brute_force(m, n):
    tabs = tb.enumerate_tableaux(m, n)
    assert len(tabs) == ssyt_count(m, n)
    assert len(tabs) == ch.dim_irrep(m + n, n)
    assert list(tabs) == sorted(tabs)
    # semistandard conditions hold
    for row1, row2 in tabs:
        assert all(row1[i] <= row1[i + 1] for i in range(len(row1) - 1))
        assert all(row1[i] < row2[i] for i in range(len(row2)))


def _reference_tableaux(m, n):
    """The tableaux by filtering all pairs of nondecreasing rows."""
    out = []
    for row1 in combinations_with_replacement((1, 2, 3), m + n):
        for row2 in combinations_with_replacement((1, 2, 3), n):
            if all(row1[i] < row2[i] for i in range(n)):
                out.append((row1, row2))
    out.sort()
    return tuple(out)


def test_enumeration_matches_the_filtered_reference():
    for m in range(9):
        for n in range(9):
            assert tb.enumerate_tableaux(m, n) == _reference_tableaux(m, n), (m, n)
    for m, n in [(-1, 0), (0, -1), (-2, -3)]:
        with pytest.raises(ValueError):
            tb.enumerate_tableaux(m, n)


def test_tableau_monomial_signs():
    # single columns: (2,3) -> +x1, (1,3) -> -x2, (1,2) -> +x3
    assert tb.tableau_monomial(((2,), (3,))) == ((("x1", 1),), 1)
    assert tb.tableau_monomial(((1,), (3,))) == ((("x2", 1),), -1)
    assert tb.tableau_monomial(((1,), (2,))) == ((("x3", 1),), 1)
    # remaining first-row entries become u's
    mono, sign = tb.tableau_monomial(((1, 2), (2,)))
    assert mono == (("x3", 1), ("u2", 1)) and sign == 1


def test_tableau_monomials_independent():
    for m, n in [(1, 1), (2, 2), (1, 3)]:
        tabs = tb.enumerate_tableaux(m, n)
        monos = tb._xu_monomials(n, m)
        A = np.zeros((len(tabs), len(monos)), dtype=np.int64)
        for i, T in enumerate(tabs):
            mo, sign = tb.tableau_monomial(T)
            A[i, monos.index(mo)] = sign
        assert linalg.rank_mod(A, linalg.DEFAULT_PRIMES[0]) == len(tabs)


def test_harmonic_dimension_matches_character():
    # bidegree (dx, du) carries the irrep (dx+du, dx)
    for dx, du in [(1, 1), (2, 2), (2, 1), (0, 3)]:
        assert tb.harmonic_dimension(dx, du) == ch.dim_irrep(dx + du, dx)


def test_harmonic_project_of_tableau_basis():
    tabs = tb.enumerate_tableaux(1, 1)
    for i, T in enumerate(tabs):
        coeffs, tabs2, rem = tb.harmonic_project(tb.tableau_poly(T))
        assert tabs2 == tabs
        assert not rem
        assert [c == (1 if j == i else 0) for j, c in enumerate(coeffs)]


def test_harmonic_project_trace_multiple():
    trace = tb.trace_poly()
    coeffs, _, rem = tb.harmonic_project(trace * Poly.var("x1") * Poly.var("u1"))
    assert all(not c for c in coeffs) or any(c for c in coeffs)
    # reassembly: sum coeff*X_T + trace*rem == input
    rebuilt = trace * rem
    for c, T in zip(coeffs, tb.enumerate_tableaux(2, 2)):
        rebuilt = rebuilt + c * tb.tableau_poly(T)
    assert rebuilt == trace * Poly.var("x1") * Poly.var("u1")


def test_harmonic_project_reassembles_random():
    import random

    rng = random.Random(1)
    monos = tb._xu_monomials(2, 2)
    p = Poly({m: rng.randint(-5, 5) for m in monos})
    coeffs, tabs, rem = tb.harmonic_project(p)
    rebuilt = tb.trace_poly() * rem
    for c, T in zip(coeffs, tabs):
        rebuilt = rebuilt + c * tb.tableau_poly(T)
    assert rebuilt == p


def test_harmonic_project_carries_outer_variables():
    p = Poly.var("a0") * Poly.var("x1") * Poly.var("u2")
    coeffs, tabs, rem = tb.harmonic_project(p)
    rebuilt = tb.trace_poly() * rem
    for c, T in zip(coeffs, tabs):
        rebuilt = rebuilt + c * tb.tableau_poly(T)
    assert rebuilt == p
    assert all((not c) or {v for m in c.terms for v, _ in m} == {"a0"} for c in coeffs)


def test_harmonic_project_rejects_inhomogeneous():
    with pytest.raises(ValueError):
        tb.harmonic_project(Poly.var("x1") + Poly.var("u1"))


def test_omega():
    p = Poly.var("x1") * Poly.var("u1")
    assert tb.omega(p) == 1
    assert tb.omega(tb.trace_poly()) == 3
    assert tb.omega(Poly.var("x1") * Poly.var("u2")) == Poly()
    p2 = Poly.var("x1", 2) * Poly.var("u1")
    assert tb.omega(p2) == 2 * Poly.var("x1")


def test_harmonic_representatives_trace_free():
    for dx, du in [(1, 1), (2, 2)]:
        harm = tb.harmonic_representatives(dx, du)
        tabs = tb.enumerate_tableaux(du, dx)
        assert len(harm) == len(tabs)
        for h, T in zip(harm, tabs):
            assert not tb.omega(h)
            # h differs from X_T by a trace multiple: projecting back gives e_T
            coeffs, _, _ = tb.harmonic_project(h)
            expect = [Fraction(1) if S == T else 0 for S in tabs]
            assert [c if isinstance(c, Poly) else c for c in coeffs] == [
                Poly.const(e) for e in expect]


def test_invariant_gram_symmetric_nonsingular():
    G = tb.invariant_gram(2, 2)
    n = len(G)
    assert n == 27
    assert all(G[i][j] == G[j][i] for i in range(n) for j in range(n))
    rows = [[G[i][j] for j in range(n)] for i in range(n)]
    assert not linalg.nullspace_frac(rows)   # nonsingular


# SHA-256 of the projection table of (dx, du) in the (point, line) variables
# for the bidegrees the catalog projects onto: (order, class) in (x, u), and
# the (y, v) degrees of the syzygy concomitants.  The module works in (x, u);
# a (y, v) table is the (x, u) table renamed, as syzygy_relation_check does.
PROJECTION_TABLE_SHA256 = {
    (0, 0, "x", "u"): "10148d25abc3112df8b40ed66f4228d5ad4d0658af022e4858cc6d609e42e330",
    (0, 3, "x", "u"): "53ed8093a1bef5662351f77988997eec2687e45bf4a22f9a4898fb06229e3b4e",
    (0, 6, "x", "u"): "6467d811af983f58e0e05ca58bf969775486e0303cf6348ad384de013bf6f490",
    (1, 1, "y", "v"): "4afd5d78d906cb10a1f76d9b96ae8dd95e9b46aaded60be21cd8c5dcab8c8dd9",
    (1, 4, "x", "u"): "1e629c35d1ce61ba6fe2e7edc5156612619e10b75973b762d5937f101dfca0e1",
    (1, 4, "y", "v"): "e42f541a9381a1b5d794bc7df577b87e4151c382e302f379c1c5588f28d67f16",
    (2, 2, "x", "u"): "242e4b4b6e04990f5cbd536494472ce3613c40f290ad6aa0dea24b4a5cacba11",
    (2, 2, "y", "v"): "84224e31709630c65b9de167f6b094a37bf0aa7f44ea90cab8fe05b59c1e8738",
    (3, 0, "x", "u"): "3aca5ae10a1c51c24fa99a94f0b7a58cacbbe7e2f150817dfc9873681592d1fa",
    (4, 1, "x", "u"): "a9db324b8d95cfaab197c742af001999285cc8bffa086f76bcaabff7731ae0ea",
    (4, 1, "y", "v"): "c668c8f0e321f0ecd3740d2c1b2e384eee79b8af20d7ee1ea50af84c400dfa97",
}

# SHA-256 of harmonic_representatives(dx, du) for the catalog bidegrees
# with dx, du >= 1
HARMONIC_REPRESENTATIVES_SHA256 = {
    (1, 4): "8e05dbc30fbde3d62ed920d622f8602fa2cabf4695fe5c1da2b24a7c5b959dfb",
    (2, 2): "ecad111645bee934db3a8455aa4dd441c30f1ab552a050ddc4eaa56b58885f78",
    (4, 1): "a67acef814f3658a9ecb8076973956318b8040f645426727f940ccd7f81dcc71",
}


def _sha256(x):
    return hashlib.sha256(repr(x).encode()).hexdigest()


def _fraction_table(dx, du):
    """_projection_table(dx, du) read as Fractions: (tableaux, {monomial: tuple
    of gamma}, {monomial: rest as Poly})."""
    tabs, smaller, row_of, T = tb._projection_table(dx, du)
    n = len(tabs)
    coords = {mo: [Fraction(int(x)) for x in T[i]] for mo, i in row_of.items()}
    return (tabs, {mo: tuple(c[:n]) for mo, c in coords.items()},
            {mo: Poly(zip(smaller, c[n:])) for mo, c in coords.items()})


def _fraction_solve(columns, rhs, monos):
    """Coordinates of each Poly in rhs on the independent Polys in columns,
    exactly over Q: [columns | rhs] row-reduced by linalg._rref_frac, whose
    pivots are then the columns alone, so row i holds coordinate i."""
    index = {mo: i for i, mo in enumerate(monos)}
    polys = [*columns, *rhs]
    A = [[Fraction(0)] * len(polys) for _ in monos]
    for j, p in enumerate(polys):
        for mo, c in p.terms.items():
            A[index[mo]][j] = Fraction(c)
    n = len(columns)
    assert linalg._rref_frac(A) == list(range(n))
    return [[row[n + k] for row in A[:n]] for k in range(len(rhs))]


def _reference_projection_table(dx, du):
    """The table solved over Q: mono = sum_T gamma_T X_T + trace * rest by one
    Fraction elimination, returned as (tableaux, smaller monomials,
    {monomial: row}, T, D) with T the integer matrix D times the solution."""
    tabs = tb.enumerate_tableaux(du, dx)
    monos = tb._xu_monomials(dx, du)
    smaller = tb._xu_monomials(dx - 1, du - 1) if dx and du else []
    trace = tb.trace_poly()
    rows = _fraction_solve([tb.tableau_poly(T) for T in tabs]
                           + [trace * Poly({sm: 1}) for sm in smaller],
                           [Poly({mo: 1}) for mo in monos], monos)
    D = lcm(*(x.denominator for row in rows for x in row))
    T = np.array([[int(x * D) for x in row] for row in rows], dtype=np.int64)
    return tabs, smaller, {mo: i for i, mo in enumerate(monos)}, T, D


def test_projection_tables_match_the_fraction_solve():
    """The closed-form tables equal the solved ones byte for byte, with
    denominator 1, at every bidegree of total degree at most 8."""
    for dx in range(9):
        for du in range(9 - dx):
            tabs, smaller, row_of, T = tb._projection_table(dx, du)
            ref_tabs, ref_smaller, ref_row_of, ref_T, D = _reference_projection_table(dx, du)
            assert D == 1, (dx, du)
            assert (tabs, smaller, row_of) == (ref_tabs, ref_smaller, ref_row_of), (dx, du)
            assert T.dtype == ref_T.dtype and T.shape == ref_T.shape, (dx, du)
            assert T.tobytes() == ref_T.tobytes(), (dx, du)


def test_projection_builds_without_a_fraction_solve(monkeypatch):
    """With the rational elimination patched to raise, the table of every
    catalog bidegree builds and every catalog concomitant projects as
    before."""
    def refuse(*args, **kwargs):
        raise AssertionError("a projection table ran a Fraction solve")

    monkeypatch.setattr(linalg, "_rref_frac", refuse)
    tb._projection_table.cache_clear()
    try:
        for dx, du in {key[:2] for key in PROJECTION_TABLE_SHA256}:
            tb._projection_table(dx, du)
        got = []
        for name in sorted(br.CATALOG):
            coeffs, tabs, rem = tb.harmonic_project(br.catalog_concomitant(name).poly)
            got.append((name, tabs, [sorted(c.terms.items()) for c in coeffs],
                        sorted(rem.terms.items())))
    finally:
        tb._projection_table.cache_clear()
    assert _sha256(got) == PROJECTED_CATALOG_SHA256


def test_projection_tables_golden():
    orders = {t[1:] for t in br.CATALOG_TYPES.values()}
    assert {k[:2] for k in PROJECTION_TABLE_SHA256 if k[2] == "x"} == orders
    for (dx, du, point, line), digest in PROJECTION_TABLE_SHA256.items():
        tabs, gamma, rest = _fraction_table(dx, du)
        names = {"x": point, "u": line}

        def renamed(mo):
            return monomial([(names[v[0]] + v[1:], e) for v, e in mo])

        got = (tabs, sorted((renamed(mo), g) for mo, g in gamma.items()),
               sorted((renamed(mo), sorted((renamed(m), c) for m, c in r.terms.items()))
                      for mo, r in rest.items()))
        assert _sha256(got) == digest, (dx, du, point, line)


def test_harmonic_representatives_golden():
    for (dx, du), digest in HARMONIC_REPRESENTATIVES_SHA256.items():
        harm = tb.harmonic_representatives(dx, du)
        assert _sha256([sorted(h.terms.items()) for h in harm]) == digest, (dx, du)


def _reference_harmonic_representatives(dx, du):
    """The former tb.harmonic_representatives, kept but for solving through
    _fraction_solve: g_T solves omega(trace * g_T) = omega(X_T), for every T
    in one Fraction elimination, and h_T = X_T - trace * g_T."""
    monos = tb._xu_monomials(dx - 1, du - 1)
    trace = tb.trace_poly()
    X = [tb.tableau_poly(T) for T in tb.enumerate_tableaux(du, dx)]
    G = _fraction_solve([tb.omega(trace * Poly({m: 1})) for m in monos],
                        [tb.omega(x) for x in X], monos)
    return tuple(x - trace * Poly(zip(monos, g)) for x, g in zip(X, G))


def test_harmonic_representatives_match_the_fraction_solve():
    """The closed form gives the solved representatives term for term, each
    coefficient of the same type, for every 1 <= dx, du <= 4."""
    for dx in range(1, 5):
        for du in range(1, 5):
            got = [sorted(h.terms.items()) for h in tb.harmonic_representatives(dx, du)]
            want = [sorted(h.terms.items()) for h in _reference_harmonic_representatives(dx, du)]
            assert repr(got) == repr(want), (dx, du)


def test_harmonic_representatives_build_without_a_fraction_solve(monkeypatch):
    """With the rational elimination patched to raise, the representatives
    build as before, and with dx or du zero they are the X_T themselves."""
    def refuse(*args, **kwargs):
        raise AssertionError("a harmonic representative ran a Fraction solve")

    monkeypatch.setattr(linalg, "_rref_frac", refuse)
    tb.harmonic_representatives.cache_clear()
    try:
        for (dx, du), digest in HARMONIC_REPRESENTATIVES_SHA256.items():
            harm = tb.harmonic_representatives(dx, du)
            assert _sha256([sorted(h.terms.items()) for h in harm]) == digest, (dx, du)
        for dx, du in ((0, 3), (3, 0)):
            X = tuple(tb.tableau_poly(T) for T in tb.enumerate_tableaux(du, dx))
            assert tb.harmonic_representatives(dx, du) == X and len(X) == 10
    finally:
        tb.harmonic_representatives.cache_clear()


def _reference_harmonic_project(p):
    """harmonic_project by a per-term loop over the projection table read as Fractions."""
    if not p:
        return [], (), Poly()
    dx = du = None
    for mo in p.terms:
        ddx = sum(e for v, e in mo if v[0] == "x")
        ddu = sum(e for v, e in mo if v[0] == "u")
        if dx is None:
            dx, du = ddx, ddu
        elif (dx, du) != (ddx, ddu):
            raise ValueError("input not bihomogeneous")
    tabs, gamma, rest = _fraction_table(dx, du)
    coeffs = [[] for _ in tabs]
    remainder = []
    for mo, c in p.terms.items():
        inner = tuple((v, e) for v, e in mo if v[0] in ("x", "u"))
        outer = tuple((v, e) for v, e in mo if v[0] not in ("x", "u"))
        for acc, g in zip(coeffs, gamma[inner]):
            if g:
                acc.append((outer, c * g))
        remainder.extend((mono_mul(outer, sm), c * r) for sm, r in rest[inner].terms.items())
    return [Poly(acc) for acc in coeffs], tabs, Poly(remainder)


def _assert_projects_as_reference(p):
    coeffs, tabs, rem = tb.harmonic_project(p)
    ref_coeffs, ref_tabs, ref_rem = _reference_harmonic_project(p)
    assert tabs == ref_tabs
    assert coeffs == ref_coeffs
    assert rem == ref_rem
    assert all(type(c) is Fraction for f in [*coeffs, rem] for c in f.terms.values())
    # the reference reads the same table; reassembly does not
    rebuilt = tb.trace_poly() * rem
    for c, T in zip(coeffs, tabs):
        rebuilt = rebuilt + c * tb.tableau_poly(T)
    assert rebuilt == p


# SHA-256 of the projection of every catalog concomitant, by name: the
# tableaux, each coefficient's sorted terms and the remainder's sorted terms
PROJECTED_CATALOG_SHA256 = "30c97f79dd34f0c90e58f434f73e22c9be1e38dc1ac6424c962cea5cc968be45"


def test_catalog_projects_as_the_reference():
    got = []
    for name in sorted(br.CATALOG):
        p = br.catalog_concomitant(name).poly
        _assert_projects_as_reference(p)
        coeffs, tabs, rem = tb.harmonic_project(p)
        got.append((name, tabs, [sorted(c.terms.items()) for c in coeffs],
                    sorted(rem.terms.items())))
    assert _sha256(got) == PROJECTED_CATALOG_SHA256


def test_syzygy_remainders_interleave_y_and_v():
    # the remainder of a Psi concomitant has monomials in which its y sit
    # between the x and the u, and its v after the u: the merge must place them
    for name in ("Psi21", "Psi42", "Psi51", "Psi54"):
        p = br.catalog_concomitant(name).poly
        _assert_projects_as_reference(p)
        _, _, rem = tb.harmonic_project(p)
        families = {"".join(v[0] for v, _ in mo if v[0] in "xyuv") for mo in rem.terms}
        assert any("xy" in f and "yu" in f and "uv" in f for f in families), name


OUTER_VARS = ("a0", "a4", "a9", "y1", "y3", "v2")
COEFFS = st.one_of(st.integers(-50, 50).filter(bool),
                   st.fractions(max_denominator=12).filter(bool),
                   st.integers(2 ** 63, 2 ** 70) | st.integers(-2 ** 70, -2 ** 63))


@st.composite
def bihomogeneous(draw):
    """A polynomial in x and u of one bidegree, with coefficients in a, y and v."""
    dx, du = draw(st.sampled_from([(0, 0), (1, 0), (0, 2), (1, 1), (2, 1), (1, 2), (2, 2),
                                   (1, 4), (0, 3)]))
    inner = tb._xu_monomials(dx, du)
    outer = st.lists(st.tuples(st.sampled_from(OUTER_VARS), st.integers(1, 2)), max_size=3)
    terms = draw(st.lists(st.tuples(st.sampled_from(inner), outer, COEFFS), max_size=40))
    return Poly((monomial(list(i) + o), c) for i, o, c in terms)


@settings(max_examples=150, deadline=None)
@given(p=bihomogeneous())
def test_harmonic_project_matches_the_reference(p):
    _assert_projects_as_reference(p)


def test_coefficients_past_int64_are_exact():
    # sum |c| * max |T| passes 2^63, so the product runs on Python ints
    big = 2 ** 70 + 1
    p = Poly({monomial([("a0", 1), ("x1", 1), ("u1", 1)]): big,
              monomial([("x2", 1), ("u2", 1)]): Fraction(-big, 7)})
    _assert_projects_as_reference(p)
    coeffs, _, rem = tb.harmonic_project(p)
    assert max(abs(c) for f in [*coeffs, rem] for c in f.terms.values()) > 2 ** 63


def test_projection_has_one_path():
    """_projection_table is read only by harmonic_project: no per-term
    Fraction loop remains."""
    readers = set()
    for path in sorted(Path(tb.__file__).parent.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            for node in ast.walk(top):
                if (getattr(node, "id", None) == "_projection_table"
                        or getattr(node, "attr", None) == "_projection_table"):
                    readers.add((path.stem, getattr(top, "name", "<module>")))
    assert readers == {("tableaux", "harmonic_project")}
