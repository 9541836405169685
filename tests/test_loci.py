"""Locus parameterizations, samplers, and the tact invariant."""

import random

import pytest

from ternary_cubics import loci, resolution
from ternary_cubics.poly import Poly, mono_degree, mono_weight


def tact(q, b):
    """The tact invariant at conic coefficients q (6) and line b (3)."""
    vals = {f"q{i + 1}": q[i] for i in range(6)}
    vals.update({f"b{i + 1}": b[i] for i in range(3)})
    return loci.tact_polynomial().evaluate(vals)


def test_substitution_maps_are_weight_preserving():
    for locus in loci.LOCI:
        spec = loci.substitution_map(locus)
        assert len(spec.phi) == 10
        for r, phi in enumerate(spec.phi):
            assert phi, (locus, r)
            assert phi.weight() == mono_weight(((f"a{r}", 1),)), (locus, r)


def test_substitution_degrees():
    # each phi_r is homogeneous of total degree 3 in the linear/quadratic params
    params = {"b", "c", "d", "m", "k", "q"}
    for locus in loci.LOCI:
        spec = loci.substitution_map(locus)
        for phi in spec.phi:
            assert len({mono_degree(m, params) for m in phi.terms}) == 1


def test_unknown_locus():
    with pytest.raises(ValueError):
        loci.substitution_map("nope")


def test_sampler_deterministic_and_nonzero():
    for locus in loci.LOCI:
        pt1 = loci.sample(locus, seed=5)
        pt2 = loci.sample(locus, seed=5)
        assert pt1 == pt2
        assert any(pt1)
        assert len(pt1) == 10
        ptp = loci.sample(locus, seed=5, p=1000003)
        assert all(0 <= v < 1000003 for v in ptp)
    assert loci.sample("equiv", seed=(1, "equiv", 2)) == loci.sample(
        "equiv", seed=(1, "equiv", 2))


def test_equiv_sample_is_a_cube():
    # reconstruct L from the pure-power coefficients and compare
    from ternary_cubics.poly import A_EXPS

    pt = loci.sample("equiv", seed=0)
    spec = loci.substitution_map("equiv")
    rng = random.Random(0)
    vals = {v: rng.randint(-20, 20) for v in spec.params}
    b = [vals["b1"], vals["b2"], vals["b3"]]
    from math import factorial
    for r, e in enumerate(A_EXPS):
        c = factorial(3) // (factorial(e[0]) * factorial(e[1]) * factorial(e[2]))
        assert pt[r] == c * b[0] ** e[0] * b[1] ** e[1] * b[2] ** e[2]


def test_concurrency_det():
    def det(b, c, d):
        """3x3 determinant with rows b, c, d (the lines-concurrent condition)."""
        return (b[0] * (c[1] * d[2] - c[2] * d[1])
                - b[1] * (c[0] * d[2] - c[2] * d[0])
                + b[2] * (c[0] * d[1] - c[1] * d[0]))

    assert det((1, 0, 0), (0, 1, 0), (0, 0, 1)) == 1
    assert det((1, 0, 0), (0, 1, 0), (1, 1, 0)) == 0
    # the y-locus family has concurrent lines by construction: L3 in <L1, L2>
    rng = random.Random(2)
    b = [rng.randint(-9, 9) for _ in range(3)]
    c = [rng.randint(-9, 9) for _ in range(3)]
    s, t = rng.randint(-9, 9), rng.randint(-9, 9)
    d = [s * b[i] + t * c[i] for i in range(3)]
    assert det(b, c, d) == 0


def test_tact_polynomial_matches_printed_formula():
    assert loci.tact_polynomial() == loci.tact_printed_formula()


def test_tact_invariant_on_circle():
    # unit circle x1^2 + x2^2 - 1: q = (1, 1, 0, 0, 0, -1)
    q = (1, 1, 0, 0, 0, -1)
    assert tact(q, (1, 0, -1)) == 0    # tangent x1 = 1
    assert tact(q, (0, 1, 0)) == -4    # secant x2 = 0
    assert tact(q, (0, 1, -1)) == 0    # tangent x2 = 1


def test_tact_family_point_is_tangent():
    # F = L (L M + K^2): the conic L M + K^2 is tangent to L, so the tact
    # invariant of that pair vanishes for generic parameters
    from ternary_cubics.poly import Q_EXPS, linear_form, monomial

    rng = random.Random(9)
    vals = {f"{f}{i}": rng.randint(-9, 9) for f in "bmk" for i in (1, 2, 3)}
    L = linear_form("b").substitute({k: Poly.const(v) for k, v in vals.items()})
    M = linear_form("m").substitute({k: Poly.const(v) for k, v in vals.items()})
    K = linear_form("k").substitute({k: Poly.const(v) for k, v in vals.items()})
    conic = L * M + K * K
    by_x = conic.collect({"x"})
    q = []
    for e in Q_EXPS:
        key = monomial([(f"x{i + 1}", e[i]) for i in range(3)])
        coeff = by_x.get(key, Poly())
        q.append(coeff.terms.get((), 0) if coeff else 0)
    b = [vals["b1"], vals["b2"], vals["b3"]]
    assert tact(q, b) == 0


def test_named_cubics():
    from ternary_cubics.poly import generic_cubic

    f = generic_cubic().substitute(
        {f"a{r}": Poly.const(v) for r, v in enumerate(loci.NAMED_CUBICS["fermat"])})
    assert f == (Poly.var("x1", 3) + Poly.var("x2", 3) + Poly.var("x3", 3))
    t = generic_cubic().substitute(
        {f"a{r}": Poly.const(v) for r, v in enumerate(loci.NAMED_CUBICS["triangle"])})
    assert t == Poly.var("x1") * Poly.var("x2") * Poly.var("x3")


def test_generator_degrees_match_the_betti_tables():
    # a minimal generator of degree j is a Betti number b_{j,0} > 0
    for locus in loci.LOCI:
        betti = resolution.betti_table(locus)
        assert loci.GENERATOR_DEGREES[locus] == tuple(
            sorted(j for (j, i), b in betti.items() if i == 0 and b > 0)), locus
