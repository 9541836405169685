"""Bracket parser, expansion engine, and catalog oracles."""

import hashlib
import random
from collections import Counter
from math import factorial

import pytest
from hypothesis import given, settings, strategies as st

from ternary_cubics import brackets as br
from ternary_cubics import loci
from ternary_cubics.poly import A_EXPS, A_INDEX, Poly, monomial


def cube_coefficients(b):
    """a-vector of (b1 x1 + b2 x2 + b3 x3)^3."""
    out = []
    for e in A_EXPS:
        c = factorial(3) // (factorial(e[0]) * factorial(e[1]) * factorial(e[2]))
        out.append(c * b[0] ** e[0] * b[1] ** e[1] * b[2] ** e[2])
    return out


# --- parser -----------------------------------------------------------------

def test_parse_simple():
    expr = br.parse("(alpha beta u)^2 alpha_x beta_x")
    assert len(expr.terms) == 1
    t = expr.terms[0]
    assert t.coeff == 1
    assert dict(t.factors) == {
        br.Det3(("alpha", "beta", "u")): 2,
        br.Pair("alpha", "x"): 1, br.Pair("beta", "x"): 1}


def test_parse_sums_and_coefficients():
    expr = br.parse("2 alpha_x^3 - 1/3 (alpha beta u) alpha_x^2 beta_x")
    assert len(expr.terms) == 2
    assert expr.terms[0].coeff == 2
    assert expr.terms[1].coeff == -br.Fraction(1, 3)


def test_syntax_errors_carry_position():
    with pytest.raises(br.BracketSyntaxError, match="position"):
        br.parse("(alpha beta u alpha_x")
    with pytest.raises(br.BracketSyntaxError, match="position"):
        br.parse("alpha_x @")
    with pytest.raises(br.BracketSyntaxError):
        br.parse("(alpha alpha u) alpha_x")   # repeated row
    with pytest.raises(br.BracketSyntaxError):
        br.parse("")


def test_type_errors():
    # greek letter must appear exactly three times
    with pytest.raises(br.BracketTypeError, match="beta"):
        br.validate(br.parse("(alpha beta u)^2 alpha_x"))
    # terms of mixed type cannot be summed
    with pytest.raises(br.BracketTypeError, match="mixed"):
        br.validate(br.parse(
            "(alpha beta u)^2 alpha_x beta_x + (alpha beta u)^3"))


# --- expansion oracles ------------------------------------------------------

def test_catalog_types_match():
    for name, declared in br.CATALOG_TYPES.items():
        conc = br.catalog_concomitant(name)
        assert not conc.is_zero, name
        assert conc.ctype.as_tuple() == declared, name
        # degrees of the expanded polynomial agree with the type
        ell, m, n = declared
        assert conc.poly.degree(families={"a"}) == ell
        assert conc.poly.degree(families={"x"}) == m
        assert conc.poly.degree(families={"u"}) == n


def test_psi_extra_degrees():
    for name in ("Psi54", "Psi51", "Psi42", "Psi21"):
        conc = br.catalog_concomitant(name)
        dy = conc.poly.degree(families={"y"})
        dv = conc.poly.degree(families={"v"})
        assert conc.ctype.extra == (dy, dv)


def test_invariants_on_cube_of_linear_form():
    """Concomitants that must die on F = L^3: the Hessian and Phi222."""
    rng = random.Random(3)
    for _ in range(5):
        b = [rng.randint(-5, 5) for _ in range(3)]
        if not any(b):
            continue
        a = cube_coefficients(b)
        for name in ("Phi330", "Phi222", "Phi400"):
            conc = br.catalog_concomitant(name)
            assert not br.evaluate_at_cubic(conc, a), (name, b)


def test_hessian_proportional_to_oracle():
    rng = random.Random(7)
    conc = br.catalog_concomitant("Phi330")
    ratio = None
    for _ in range(6):
        a = [rng.randint(-9, 9) for _ in range(10)]
        got = br.evaluate_at_cubic(conc, a)
        want = br.hessian_oracle(a)
        if not want:
            assert not got
            continue
        mo = next(iter(want.terms))
        r = br.Fraction(got.terms.get(mo, 0), want.terms[mo])
        assert got == want * r
        if ratio is None:
            ratio = r
        assert r == ratio
    assert ratio is not None and ratio != 0


def test_phi406_equals_dual_curve_variant():
    a = br.catalog_concomitant("Phi406")
    b = br.catalog_concomitant("Phi406_dualcurve")
    assert a.poly == b.poly


def test_phi400_vanishing_pattern():
    conc = br.catalog_concomitant("Phi400")
    fermat = loci.NAMED_CUBICS["fermat"]
    assert br.evaluate_at_cubic(conc, fermat) == Poly()
    assert br.evaluate_at_cubic(conc, [1] + [0] * 9) == Poly()
    rng = random.Random(11)
    a = [rng.randint(-9, 9) for _ in range(10)]
    assert br.evaluate_at_cubic(conc, a)


def test_phi400_times_phi441_type():
    p = (br.catalog_concomitant("Phi400").poly
         * br.catalog_concomitant("Phi441").poly)
    assert p.degree(families={"a"}) == 8
    assert p.degree(families={"x"}) == 4
    assert p.degree(families={"u"}) == 1
    assert p


def substituted(conc, a):
    """The concomitant at the cubic a by Poly.substitute: the evaluator's oracle."""
    return conc.poly.substitute({f"a{r}": Poly.const(a[r]) for r in range(10)})


@pytest.mark.parametrize("name", sorted(br.CATALOG))
def test_evaluate_at_cubic_matches_substitution(name):
    conc = br.catalog_concomitant(name)
    rng = random.Random(name)
    for a in ([rng.randint(-9, 9) for _ in range(10)], [0] * 10,
              cube_coefficients([1, -2, 3])):
        assert br.evaluate_at_cubic(conc, a) == substituted(conc, a)


def test_vanishes_at_cubic_matches_substitution():
    conc = br.catalog_concomitant("Phi222")
    p = 1000003
    b = [2, -3, 5]
    a = cube_coefficients(b)
    assert br.vanishes_at_cubic(conc, a, p)
    rng = random.Random(13)
    a2 = [rng.randint(1, 20) for _ in range(10)]
    assert not br.vanishes_at_cubic(conc, a2, p)
    # agreement with the exact value reduced mod q, also at a point whose
    # value is nonzero over Z but vanishes mod q, and at negative entries
    for q in (p, 65537):
        for pt in (a, a2, [q * x for x in a2], [x - q for x in a2]):
            exact = substituted(conc, pt)
            assert br.vanishes_at_cubic(conc, pt, q) == all(
                c % q == 0 for c in exact.terms.values())


def test_catalog_unknown_name():
    with pytest.raises(KeyError):
        br.catalog("Phi999")


# --- packed-key expansion ---------------------------------------------------

# SHA-256 of repr(sorted(poly.terms.items())) for every catalog entry, taken
# from the tuple-keyed expander that the packed-key one replaced
CATALOG_SHA256 = {
    "Phi222": "94ce4732cf397c1a5a61a6f3bc39eb26c2eaa18161da90c5a7a89cbaf475b80b",
    "Phi303": "81f81f75831a6837a30b94eb384606a3bdd4220f13ae7109aeaa7711072aa4ca",
    "Phi330": "006705dd510ffbfa00d5cb5099f9f5a7cd7856c85f1ac44d74a9820d676c3a84",
    "Phi400": "3a8c55f9cdf18cd123cf72d4cf4af284d7e2dc808985e78cf18c047d4892d5fa",
    "Phi406": "eb34619e7f100a1bc2801d28ea689eecf035d79f02e5f17f9886a291fe4de47b",
    "Phi406_dualcurve": "eb34619e7f100a1bc2801d28ea689eecf035d79f02e5f17f9886a291fe4de47b",
    "Phi441": "bb7abf58708c0c4f807a115ee1942c877c651ac06a3a2090f7dcbba9f5fb1fe8",
    "Phi503": "d25117cfa42ef6453ce6eaf69af85b45de706ff7573d573c6637dc6078d65e2d",
    "Phi600": "0f5e7d632da73d2811cbbc74c6e4ee9fcb1bb66c0bbad225a38d331957e00e2e",
    "Phi814": "f48d1e08f186150d0bd67649fe17c7ec65a6eb74b59ddbc6e5b9da9e60db9759",
    "Psi21": "8e6fb74dde78b53d376e92959885704cd916c65e6be3a93b61b88c6af0a8bf89",
    "Psi42": "9753a0b2aa2bc88123f7f7b7e97d63d581db90742e64b433499329446af7417b",
    "Psi51": "9583d1708f6652993a2faf6c2c4fec716a290679dc09d786d41f62ed44189289",
    "Psi54": "72291dffdf5e13d6b09ad95c5557146cfe5b0cc4029132287825c5b2b1dc8534",
}


def test_catalog_expansions_golden():
    assert set(CATALOG_SHA256) == set(br.CATALOG)
    for name, digest in CATALOG_SHA256.items():
        items = sorted(br.catalog_concomitant(name).poly.terms.items())
        assert hashlib.sha256(repr(items).encode()).hexdigest() == digest, name


def _reference_expand_term(term):
    """The tuple-keyed expander: exponent tuple plus sorted a-index tuple per key."""
    greek, _ = br._term_counts(term)
    letters = sorted(greek)
    remaining = [atom for atom, exp in term.factors for _ in range(exp)]
    ordered, live = [], []

    def syms(atom):
        return [atom.left] if isinstance(atom, br.Pair) else list(atom.rows)

    while remaining:
        def score(atom):
            gs = [s for s in syms(atom) if s in br.GREEK]
            return (sum(1 for s in gs if s not in live), -len([s for s in gs if s in live]))
        best = min(remaining, key=score)
        remaining.remove(best)
        ordered.append(best)
        live.extend(s for s in syms(best) if s in br.GREEK and s not in live)

    slot_names = [(g, i) for g in letters for i in range(3)] + \
                 [(s, i) for s in ("u", "v", "x", "y") for i in range(3)]
    slot_of = {name: j for j, name in enumerate(slot_names)}
    left = dict(greek)
    terms = {(tuple([0] * len(slot_names)), ()): 1}
    for atom in ordered:
        if isinstance(atom, br.Pair):
            facs = [({slot_of[(atom.left, i)]: 1, slot_of[(atom.right, i)]: 1}, 1)
                    for i in range(3)]
        else:
            facs = []
            for perm, sgn in (((0, 1, 2), 1), ((1, 2, 0), 1), ((2, 0, 1), 1),
                              ((0, 2, 1), -1), ((2, 1, 0), -1), ((1, 0, 2), -1)):
                facs.append(({slot_of[(row, comp)]: 1
                              for row, comp in zip(atom.rows, perm)}, sgn))
        new = {}
        for (exps, apart), coeff in terms.items():
            for delta, sgn in facs:
                e = list(exps)
                for sl, d in delta.items():
                    e[sl] += d
                key = (tuple(e), apart)
                new[key] = new.get(key, 0) + coeff * sgn
        terms = {k: c for k, c in new.items() if c}
        for g in syms(atom):
            if g not in left:
                continue
            left[g] -= 1
            if left[g]:
                continue
            sl = [slot_of[(g, i)] for i in range(3)]
            new = {}
            for (exps, apart), coeff in terms.items():
                i1, i2, i3 = (exps[j] for j in sl)
                e = list(exps)
                for j in sl:
                    e[j] = 0
                key = (tuple(e), tuple(sorted(apart + (A_INDEX[(i1, i2, i3)],))))
                mult = factorial(i1) * factorial(i2) * factorial(i3)
                new[key] = new.get(key, 0) + coeff * mult
            terms = {k: c for k, c in new.items() if c}
    out = {}
    for (exps, apart), coeff in terms.items():
        pairs = [(f"a{r}", 1) for r in apart]
        pairs += [(f"{s}{i + 1}", exps[slot_of[(s, i)]])
                  for s in ("u", "v", "x", "y") for i in range(3)]
        key = monomial(pairs)
        out[key] = out.get(key, 0) + coeff
    return {k: c for k, c in out.items() if c}


@st.composite
def bracket_products(draw):
    """Source of one valid product term: every Greek letter occurs three times."""
    letters = br.GREEK[:draw(st.integers(1, 3))]
    left = {g: 3 for g in letters}
    factors = []
    while any(left.values()):
        live = [g for g in letters if left[g]]
        if draw(st.booleans()):
            g = draw(st.sampled_from(live))
            left[g] -= 1
            factors.append(f"{g}_{draw(st.sampled_from('xy'))}")
        else:
            rows = draw(st.lists(st.sampled_from(live), min_size=1,
                                 max_size=min(3, len(live)), unique=True))
            for g in rows:
                left[g] -= 1
            rows += draw(st.lists(st.sampled_from(br.LINE_VARS), min_size=3 - len(rows),
                                  max_size=3 - len(rows), unique=True))
            factors.append("(" + " ".join(draw(st.permutations(rows))) + ")")
    factors += draw(st.lists(st.sampled_from(["u_x", "u_y", "v_x", "v_y"]), max_size=1))
    # repeated factors are written with an exponent
    parts = [f if n == 1 else f"{f}^{n}" for f, n in Counter(factors).items()]
    return " ".join(draw(st.permutations(parts)))


@settings(max_examples=40, deadline=None)
@given(bracket_products())
def test_packed_expansion_matches_reference(src):
    expr = br.parse(src)
    br.validate(expr)
    (term,) = expr.terms
    assert br._expand_term(term) == _reference_expand_term(term)


def test_key_field_width_bound():
    """No field of the largest catalog term can carry into its neighbour."""
    terms = [t for src in br.CATALOG.values() for t in br.parse(src).terms]
    term = max(terms, key=lambda t: len(br._term_counts(t)[0]))
    greek, counts = br._term_counts(term)
    assert len(greek) == 8   # Phi814
    width, field = br._key_layout(sorted(greek), counts)
    # a letter field holds at most 3, a u/v/x/y field the symbol's count,
    # an a-field the number of letters
    bounds = [3] * (3 * len(greek)) + \
             [counts[s] for s in ("u", "v", "x", "y") for _ in range(3)] + \
             [len(greek)] * 10
    assert len(field) + 10 == len(bounds)
    assert max(bounds) < 1 << width
    assert max(bounds) >= 1 << (width - 1)   # and no wider than needed
    # every exponent of the expansion fits its field
    raw = br._expand_term(term)
    for mono in raw:
        for v, e in mono:
            assert e < 1 << width
