"""Exact polynomial arithmetic: ring axioms, substitution, serialization."""

import ast
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from ternary_cubics import poly
from ternary_cubics.poly import Poly


def v(name, e=1):
    return Poly.var(name, e)


def from_text(text):
    """Parse the output of Poly.to_text, one `coeff * mono` summand per line."""
    out = Poly()
    for line in text.splitlines():
        coeff, _, mono = line.strip().partition(" * ")
        pairs = []
        for factor in filter(None, mono.split("*")):
            name, _, e = factor.partition("^")
            pairs.append((name, int(e or 1)))
        out = out + Poly({poly.monomial(pairs): Fraction(coeff)})
    return out


# a small pool of structured polynomials for property tests
def poly_strategy():
    names = ["a0", "a3", "x1", "x2", "u3", "b1", "q2", "s"]
    term = st.tuples(
        st.integers(-5, 5),
        st.lists(st.sampled_from(names), min_size=0, max_size=3),
    )
    return st.lists(term, min_size=0, max_size=5).map(
        lambda ts: sum(
            (Poly({poly.monomial([(n, 1) for n in ns]): c}) for c, ns in ts if c),
            Poly(),
        )
    )


def test_monomial_canonical_form():
    m = poly.monomial([("x2", 1), ("x1", 2), ("x2", 1), ("a0", 0)])
    assert m == (("x1", 2), ("x2", 2))
    assert poly.mono_mul(m, (("x1", 1),)) == (("x1", 3), ("x2", 2))


def test_monomial_signed_exponents():
    # exponents summing to zero drop out, and a negative exponent divides
    m = (("x1", 2), ("x2", 2))
    assert poly.monomial(m + (("x2", -2), ("u1", 1))) == (("x1", 2), ("u1", 1))
    assert poly.monomial([("x1", 1), ("x1", -1)]) == ()
    assert poly.monomial([("x1", -1)]) == (("x1", -1),)


def test_negative_power_raises():
    with pytest.raises(ValueError, match="negative power"):
        v("x1") ** -1


def test_weights():
    assert poly.mono_weight((("a0", 1),)) == (3, 0, 0)
    assert poly.mono_weight((("x1", 1), ("u1", 1))) == (0, 0, 0)
    assert poly.mono_weight((("q3", 1),)) == (1, 1, 0)
    f = poly.generic_cubic()
    assert f.weight() == (0, 0, 0)
    q = poly.generic_quadric()
    assert q.weight() == (0, 0, 0)


def test_basic_arithmetic():
    p = v("x1") + 2 * v("x2")
    q = v("x1") - 2 * v("x2")
    assert p + q == 2 * v("x1")
    assert p - p == Poly()
    assert not (p - p)
    assert p * q == v("x1", 2) - 4 * v("x2", 2)
    assert (p + 1) * (p - 1) == p * p - 1
    assert p ** 3 == p * p * p
    assert p ** 0 == 1


def test_fraction_coefficients():
    p = Fraction(1, 2) * v("x1") + Fraction(1, 3) * v("x2")
    assert (6 * p).terms == {(("x1", 1),): 3, (("x2", 1),): 2}


def test_substitute_is_homomorphism():
    p = v("x1", 2) + v("x1") * v("x2") - 3
    q = v("x2") + 5
    sub = {"x1": v("u1") + v("u2"), "x2": Poly.const(2)}
    assert (p * q).substitute(sub) == p.substitute(sub) * q.substitute(sub)
    assert (p + q).substitute(sub) == p.substitute(sub) + q.substitute(sub)


def test_substitute_leaves_unassigned():
    p = v("x1") * v("a0")
    assert p.substitute({"x1": Poly.const(7)}) == 7 * v("a0")


def test_evaluate():
    p = v("x1", 2) + 3 * v("x2")
    assert p.evaluate({"x1": 2, "x2": -1}) == 1
    assert p.evaluate({"x1": 2, "x2": -1}, p=5) == 1
    with pytest.raises(KeyError):
        p.evaluate({"x1": 2})


def test_degree_and_homogeneity():
    # the generic cubic is linear in a and cubic in x, term by term
    f = poly.generic_cubic()
    degrees = {(sum(e for v, e in m if v[0] == "a"), sum(e for v, e in m if v[0] == "x"))
               for m in f.terms}
    assert degrees == {(1, 3)} and len(f.terms) == 10


def test_collect_reassembles():
    f = poly.generic_cubic() * (v("u1") + v("u2"))
    parts = f.collect({"x"})
    rebuilt = Poly()
    for inner, coeff in parts.items():
        rebuilt = rebuilt + Poly({inner: 1}) * coeff
    assert rebuilt == f
    assert len(parts) == 10    # one bucket per cubic monomial


def test_text_round_trip():
    p = 3 * v("x1", 2) * v("u3") - Fraction(1, 2) * v("a9") + 7
    assert from_text(p.to_text()) == p
    assert from_text(Poly().to_text()) == Poly()


def test_to_text_deterministic():
    p = v("a0") + v("x1") * v("u1") - 2 * v("q6")
    assert p.to_text() == Poly(dict(p.terms)).to_text()


def test_generic_forms():
    assert len(poly.generic_cubic().terms) == 10
    assert len(poly.generic_quadric().terms) == 6


@settings(max_examples=40, deadline=None)
@given(poly_strategy(), poly_strategy(), poly_strategy())
def test_ring_axioms(p, q, r):
    assert (p + q) + r == p + (q + r)
    assert p + q == q + p
    assert p * q == q * p
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r
    assert p * 1 == p and p * 0 == Poly()


@settings(max_examples=25, deadline=None)
@given(poly_strategy())
def test_text_round_trip_property(p):
    assert from_text(p.to_text()) == p


def _terms_assignments(path):
    """(enclosing function qualname, line) of each assignment to a .terms attribute."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = scope + (node.name,)
        targets = []
        if isinstance(node, ast.Assign):
            targets = list(node.targets)
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        while targets:
            t = targets.pop()
            if isinstance(t, (ast.Tuple, ast.List)):
                targets.extend(t.elts)
            elif isinstance(t, ast.Starred):
                targets.append(t.value)
            elif isinstance(t, ast.Attribute) and t.attr == "terms":
                found.append((".".join(scope), node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(path.read_text()), ())
    return found


def test_only_the_constructor_assigns_terms():
    # every Poly is built by Poly.__init__, the one place that merges terms
    src = Path(__file__).resolve().parents[1] / "src"
    found = [(path.name, scope) for path in sorted(src.rglob("*.py"))
             for scope, _ in _terms_assignments(path)]
    assert found == [("poly.py", "Poly.__init__")]
