"""Bracket parser, expansion engine, and catalog oracles."""

import ast
import hashlib
import random
import string
from collections import Counter
from fractions import Fraction
from itertools import compress, product
from math import factorial, gcd
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ternary_cubics import brackets as br
from ternary_cubics import cli, ideals, linalg, loci
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
    # a sign must be followed by a term
    for src in ("alpha_x^3 +", "alpha_x^3 + + beta_x^3"):
        with pytest.raises(br.BracketSyntaxError, match="position"):
            br.parse(src)
    # a zero denominator raised ZeroDivisionError from Fraction
    for src, pos in (("1/0 alpha_x^3", 0), ("alpha_x^3 + 2/00 beta_x^3", 12)):
        with pytest.raises(br.BracketSyntaxError, match=f"zero denominator at position {pos}"):
            br.parse(src)


def test_catalog_parses_unchanged():
    text = "".join(repr(br.parse(src)) for src in br.CATALOG.values())
    assert hashlib.sha256(text.encode()).hexdigest() == \
        "163debb87c85bee243afe2ad5be2a74e3ed4c3434f43d138f69ab3262bffabd4"


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


def vanishes_exactly(conc, a, q):
    """The exact value at a, reduced mod q: the oracle for vanishes_at_cubics."""
    return all(c % q == 0 for c in br.evaluate_at_cubic(conc, a).terms.values())


# the locus on which verify-all checks each concomitant's vanishing
VANISHING_LOCI = {name: lid for name, lid, _ in cli.CONCOMITANT_LOCI}


@pytest.mark.parametrize("name", sorted(br.CATALOG))
def test_vanishes_at_cubics_matches_exact_value(name):
    conc = br.catalog_concomitant(name)
    rng = random.Random(name)
    a1, a2 = ([rng.randint(-9, 9) for _ in range(10)] for _ in range(2))
    cube = cube_coefficients([2, -3, 5])
    for q in linalg.DEFAULT_PRIMES:
        # negative entries, entries past q, multiples of q (nonzero over Z,
        # zero mod q), the zero point, a cube, and a locus point mod q
        points = [a1, a2, [x - q for x in a1], [q * x for x in a2], [0] * 10, cube]
        if name in VANISHING_LOCI:
            points.append(loci.sample(VANISHING_LOCI[name], seed=0, p=q))
        got = br.vanishes_at_cubics(conc, points, q)
        assert got == [vanishes_exactly(conc, a, q) for a in points], q
        assert got[:5] == [False, False, False, True, True]


def test_vanishes_at_cubics_keeps_the_point_order():
    conc = br.catalog_concomitant("Phi222")      # zero on cubes, not in general
    p = linalg.DEFAULT_PRIMES[0]
    rng = random.Random(13)
    points = [cube_coefficients([rng.randint(1, 9) for _ in range(3)]) if k % 3 else
              [rng.randint(1, 20) for _ in range(10)] for k in range(10)]
    assert br.vanishes_at_cubics(conc, points, p) == [bool(k % 3) for k in range(10)]
    assert br.vanishes_at_cubics(conc, [], p) == []
    zero = br.expand(br.parse("(alpha beta u)^3"))     # odd power of an alternating form
    assert zero.is_zero and br.vanishes_at_cubics(zero, [[1] * 10], p) == [True]


def test_vanishes_at_cubics_int64_guard(monkeypatch):
    # a coefficient of Phi503 sums 49 terms; the guard trips once 49 (p - 1)
    # reaches the bound
    conc = br.catalog_concomitant("Phi503")
    p = linalg.DEFAULT_PRIMES[0]
    assert conc._evaluation_table[3] == 49
    monkeypatch.setattr(br, "_INT64_BOUND", 49 * (p - 1) + 1)
    assert br.vanishes_at_cubics(conc, [[0] * 10], p) == [True]
    monkeypatch.setattr(br, "_INT64_BOUND", 49 * (p - 1))
    with pytest.raises(ValueError, match="2\\^63"):
        br.vanishes_at_cubics(conc, [[0] * 10], p)


@pytest.mark.parametrize("point", [[1] * 9, [1] * 11, [1.0] + [1] * 9, [1.5] * 10, 7,
                                   "1,2,3,4,5,6,7,8,9,0"])
def test_evaluators_reject_a_point_that_is_not_10_integers(point):
    # once [1] * 9 raised IndexError, [1] * 11 answered 25 from the first ten
    # entries, and a float entry was evaluated as a float; a kernel's
    # vanishes_at truncated float entries and answered for [1] * 11
    p = linalg.DEFAULT_PRIMES[0]
    conc = br.catalog_concomitant("Phi400")
    with pytest.raises(ValueError, match="10 integer coefficients a0..a9"):
        br.evaluate_at_cubic(conc, point)
    with pytest.raises(ValueError, match="10 integer coefficients a0..a9"):
        br.vanishes_at_cubics(conc, [[0] * 10, point], p)
    assert br.evaluate_at_cubic(conc, np.ones(10, np.int64)) == br.evaluate_at_cubic(conc, [1] * 10)
    gp = ideals.graded_kernel("equiv", 2, primes=(p,))
    with pytest.raises(ValueError, match="10 integer coefficients a0..a9"):
        gp.vanishes_at(point, p)
    assert gp.vanishes_at(np.zeros(10, np.int64), p) and not gp.vanishes_at([1] * 10, p)


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


def _expanded_term(term):
    """_expand_term(term) read off its arrays as {Poly monomial: int coeff},
    the form _reference_expand_term returns."""
    exps, coeffs = br._expand_term(term)
    assert exps.shape == (len(coeffs), len(br._MONO_FIELDS))
    assert exps.dtype.kind == "u" and exps.dtype.itemsize == 1
    names = [var for _, var in br._MONO_FIELDS]
    monos = [tuple(compress(zip(names, row), row)) for row in exps.tolist()]
    assert len(set(monos)) == len(monos) and all(coeffs)
    return dict(zip(monos, coeffs.tolist()))


def _normalized_expansion(src):
    """expand(parse(src)).poly, checked to be the primitive integer multiple
    of the reference sum with a positive leading term in graded-lex order."""
    expr = br.parse(src)
    want = Poly((m, t.coeff * c) for t in expr.terms
                for m, c in _reference_expand_term(t).items())
    got = br.expand(expr).poly
    assert all(isinstance(c, int) for c in got.terms.values())
    assert gcd(*got.terms.values()) == 1
    assert got.sorted_terms()[0][1] > 0
    mono = next(iter(want.terms))
    assert got * (want.terms[mono] / Fraction(got.terms[mono])) == want
    return got


def test_expand_normalizes_rational_sums():
    """A sum with rational coefficients expands to its primitive integer
    multiple, with a positive leading term in graded-lex order."""
    got = _normalized_expansion("alpha_x^3 beta_y^3 - 3/2 alpha_x^2 alpha_y beta_x beta_y^2")
    # a negative rational multiple of the sum expands to the same polynomial
    scaled = "-5/3 alpha_x^3 beta_y^3 + 5/2 alpha_x^2 alpha_y beta_x beta_y^2"
    assert _normalized_expansion(scaled) == got
    # one term with a negative leading coefficient: no merge in expand
    single = _normalized_expansion("alpha_x^3 beta_y^3")
    assert _normalized_expansion("-7/2 alpha_x^3 beta_y^3") == single
    # a scale that pushes the summed coefficients past int64 keeps them exact
    big = 3 ** 40
    wide = _normalized_expansion(f"{big} alpha_x^3 beta_y^3 - 3/2 alpha_x^2 alpha_y beta_x beta_y^2")
    assert max(map(abs, wide.terms.values())) >= 1 << 63
    # terms that cancel leave the others: a sum with one term written twice
    # with opposite signs expands as the term left over
    assert _normalized_expansion("alpha_x^3 beta_y^3 - 3/2 alpha_x^2 alpha_y beta_x beta_y^2"
                                 " + 2 alpha_x^2 alpha_y beta_x beta_y^2"
                                 " - 2 alpha_x^2 alpha_y beta_x beta_y^2") == got
    # a sum that cancels is the flagged zero
    zero = br.expand(br.parse(br.CATALOG["Phi406"] + " - " + br.CATALOG["Phi406_dualcurve"]))
    assert zero.is_zero and zero.poly == Poly()


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


@settings(max_examples=40, deadline=None, derandomize=True)
@given(bracket_products())
def test_packed_expansion_matches_reference(src):
    expr = br.parse(src)
    br.validate(expr)
    (term,) = expr.terms
    assert _expanded_term(term) == _reference_expand_term(term)


def test_key_layout_fits_every_field():
    """No field of the largest catalog term can carry or straddle a word."""
    terms = [t for src in br.CATALOG.values() for t in br.parse(src).terms]
    term = max(terms, key=lambda t: len(br._term_counts(t)[0]))
    greek, counts = br._term_counts(term)
    assert len(greek) == 8   # Phi814
    fields, words = br._layout(sorted(greek), counts)
    # a letter field holds at most 3, a u/v/x/y field the symbol's count,
    # an a-field the number of letters; a field with bound 0 is dropped
    bounds = {(g, i): 3 for g in greek for i in range(3)}
    bounds.update({(s, i): counts[s] for s in ("u", "v", "x", "y") for i in range(3)})
    bounds.update({("a", r): len(greek) for r in range(10)})
    assert set(fields) == {name for name, b in bounds.items() if b}
    used = [0] * words
    for name, (word, shift, width) in fields.items():
        assert bounds[name] < 1 << width and bounds[name] >= 1 << (width - 1), name
        assert 0 <= shift and shift + width <= 63, name
        used[word] += width
    assert used == [60, 40]
    # the fields of a word do not overlap
    for w in range(words):
        spans = sorted((shift, width) for word, shift, width in fields.values() if word == w)
        assert all(a + n <= b for (a, n), (b, _) in zip(spans, spans[1:]))
    # every exponent of the expansion fits its field
    raw = _expanded_term(term)
    for mono in raw:
        for v, e in mono:
            field = ("a", int(v[1:])) if v[0] == "a" else (v[0], int(v[1:]) - 1)
            assert e < 1 << fields[field][2]


def test_object_coefficients_keep_every_digest(monkeypatch):
    """With the int64 guard at 0 every coefficient is a Python int from the
    first factor on, and every catalog expansion is unchanged."""
    dtypes = set()
    merge = br._merge

    def spy(keys, coeffs):
        dtypes.add(coeffs.dtype)
        return merge(keys, coeffs)

    monkeypatch.setattr(br, "_merge", spy)
    for name in br.CATALOG:
        br.expand(br.catalog(name))
    assert dtypes == {np.dtype(np.int64)}   # the catalog fits int64
    dtypes.clear()
    monkeypatch.setattr(br, "_INT64_BOUND", 0)
    for name, digest in CATALOG_SHA256.items():
        items = sorted(br.expand(br.catalog(name)).poly.terms.items())
        assert hashlib.sha256(repr(items).encode()).hexdigest() == digest, name
    assert dtypes == {np.dtype(object)}


# the largest merge input, in rows, of each catalog expansion with its
# factors folded in the order _fold_order plans, one merge per factor: all
# of a factor's summands at once
MERGE_ROWS = {
    "Phi222": 189, "Phi303": 612, "Phi330": 252, "Phi400": 612, "Phi406": 5760,
    "Phi406_dualcurve": 5760, "Phi441": 2214, "Phi503": 5256, "Phi600": 5256,
    "Phi814": 145512, "Psi21": 108, "Psi42": 432, "Psi51": 324, "Psi54": 567,
}


def _largest_merge(monkeypatch, expr):
    """(expansion digest, largest merge input) of a parsed expression."""
    largest = [0]
    merge = br._merge

    def spy(keys, coeffs):
        largest[0] = max(largest[0], len(keys))
        return merge(keys, coeffs)

    monkeypatch.setattr(br, "_merge", spy)
    items = sorted(br.expand(expr).poly.terms.items())
    monkeypatch.setattr(br, "_merge", merge)
    return hashlib.sha256(repr(items).encode()).hexdigest(), largest[0]


def test_catalog_fold_sizes_stay_bounded(monkeypatch):
    """No catalog entry is planned into a costly fold: each largest merge
    input stays within 1.25 times its measured size."""
    largest = {name: _largest_merge(monkeypatch, br.catalog(name))[1] for name in br.CATALOG}
    assert set(largest) == set(MERGE_ROWS)
    assert {n: k for n, k in largest.items() if k > 1.25 * MERGE_ROWS[n]} == {}


def test_one_merge_per_factor(monkeypatch):
    """A factor occurrence is folded by one merge of all its summands, and
    expand merges only across terms: Phi814's 10 factors take 10 merges."""
    calls = []
    merge = br._merge
    monkeypatch.setattr(br, "_merge", lambda keys, coeffs: calls.append(len(keys))
                        or merge(keys, coeffs))
    for name in br.CATALOG:
        calls.clear()
        (term,) = br.catalog(name).terms
        br.expand(br.catalog(name))
        assert len(calls) == sum(exp for _, exp in term.factors), name
    calls.clear()
    br.expand(br.parse("alpha_x^3 beta_y^3 - 3/2 alpha_x^2 alpha_y beta_x beta_y^2"))
    assert len(calls) == 6 + 6 + 1


def _reference_merge(keys, coeffs):
    """The former _merge, ordered by one np.lexsort of every column."""
    order = np.lexsort(keys.T)
    keys, coeffs = keys[order], coeffs[order]
    first = np.ones(len(keys), bool)
    first[1:] = (keys[1:] != keys[:-1]).any(axis=1)
    starts = np.flatnonzero(first)
    if not len(starts):
        return keys, coeffs
    coeffs = np.add.reduceat(coeffs, starts)
    keep = coeffs != 0
    return keys[starts[keep]], coeffs[keep]


@st.composite
def merge_inputs(draw):
    """Packed keys of 1 to 3 words, drawn from a few distinct rows so that
    rows repeat, with coefficients that often cancel; int64 or object.  Each
    word takes one of four values, so that rows tie in every column."""
    words = draw(st.integers(1, 3))
    word = st.sampled_from([0, 1, 2, 2 ** 63 - 1])
    rows = draw(st.lists(st.tuples(*[word] * words), min_size=1, max_size=8))
    picks = draw(st.lists(st.tuples(st.sampled_from(rows), st.integers(-2, 2)), max_size=100))
    keys = np.array([r for r, _ in picks], np.int64).reshape(-1, words)
    coeffs = np.array([c for _, c in picks], np.int64)
    return keys, (coeffs.astype(object) * 2 ** 70 if draw(st.booleans()) else coeffs)


@settings(max_examples=200, deadline=None)
@given(merge_inputs())
def test_merge_matches_lexsort(keys_coeffs):
    got_keys, got_coeffs = br._merge(*keys_coeffs)
    want_keys, want_coeffs = _reference_merge(*keys_coeffs)
    assert got_keys.tolist() == want_keys.tolist()
    assert got_coeffs.tolist() == want_coeffs.tolist()
    assert got_coeffs.dtype == want_coeffs.dtype and 0 not in got_coeffs.tolist()


def test_fold_plan_ignores_the_written_order(monkeypatch):
    """Phi814 written forwards, reversed or shuffled is planned into one
    order, with one expansion and one largest merge input."""
    (term,) = br.catalog("Phi814").terms
    shuffled = list(term.factors)
    random.Random(814).shuffle(shuffled)
    orders, results = [], set()
    for factors in (term.factors, term.factors[::-1], tuple(shuffled)):
        written = br.Term(term.coeff, factors)
        orders.append(br._fold_order(written, br._term_counts(written)[0]))
        results.add(_largest_merge(monkeypatch, br.BracketExpr((written,))))
    assert orders[0] == orders[1] == orders[2]
    assert results == {(CATALOG_SHA256["Phi814"], MERGE_ROWS["Phi814"])}


def _check_fold_order(term):
    order = br._fold_order(term, br._term_counts(term)[0])
    assert Counter(order) == Counter(atom for atom, exp in term.factors for _ in range(exp))
    greek = [any(s in br.GREEK for s in br._atom_syms(atom)) for atom in order]
    # the occurrences with no Greek letter come last
    assert greek == sorted(greek, reverse=True)


def test_fold_order_is_a_permutation_with_slots_last():
    for src in br.CATALOG.values():
        (term,) = br.parse(src).terms
        _check_fold_order(term)


@settings(max_examples=60, deadline=None)
@given(bracket_products())
def test_fold_order_of_drawn_products(src):
    (term,) = br.parse(src).terms
    _check_fold_order(term)


def test_fold_order_skips_zeroth_powers():
    (term,) = br.parse("alpha_x^3 (alpha u v)^0 u_y v_x^0").terms
    assert br._fold_order(term, br._term_counts(term)[0]) == \
        [br.Pair("alpha", "x")] * 3 + [br.Pair("u", "y")]


def test_fold_plan_bounds_at_most_one_letter_set_each(monkeypatch):
    """Planning an 8-letter term evaluates the row bound at most 2^8 times."""
    calls = []
    bound = br._row_bound

    def spy(folded, greek):
        calls.append(len(folded))
        return bound(folded, greek)

    monkeypatch.setattr(br, "_row_bound", spy)
    (term,) = br.catalog("Phi814").terms
    greek = br._term_counts(term)[0]
    assert len(greek) == 8
    br._fold_order(term, greek)
    assert 0 < len(calls) <= 2 ** 8


def test_coefficients_past_int64_are_exact():
    # (u_x)^45 has multinomial coefficients up to 45! / 15!^3 > 2^63
    (term,) = br.parse("alpha_x^3 u_x^45").terms
    got = _expanded_term(term)
    assert max(map(abs, got.values())) >= 1 << 63
    assert got == _reference_expand_term(term)


def test_expand_has_one_path():
    """_expand_term is called only from expand, and no dict of partial terms
    is looped over: the array fold replaced the dict loop, it did not fork it."""
    src = Path(br.__file__).parent
    callers = set()
    for path in sorted(src.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            for node in ast.walk(top):
                if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_expand_term":
                    callers.add((path.stem, getattr(top, "name", "<module>")))
    assert callers == {("brackets", "expand")}
    tree = ast.parse(Path(br.__file__).read_text())
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    names |= {node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
    assert "_key_layout" not in names
    fold = [node for node in tree.body if isinstance(node, ast.FunctionDef)
            and node.name in ("_expand_term", "_merge")]
    assert len(fold) == 2
    for fn in fold:
        for node in ast.walk(fn):
            # the old loop built {key: coeff} dicts with .get and a comprehension
            assert not isinstance(node, (ast.Dict, ast.DictComp)), fn.name
            if isinstance(node, ast.Attribute):
                assert node.attr not in ("get", "setdefault"), fn.name
            # the one dict iterated is A_INDEX, to build the substitution tables
            if isinstance(node, ast.For) and isinstance(node.iter, ast.Call) \
                    and getattr(node.iter.func, "attr", None) == "items":
                assert getattr(node.iter.func.value, "id", None) == "A_INDEX", fn.name


# --- tensor-network oracle --------------------------------------------------

def contract(term, a, vecs):
    """The product term as an exact tensor-network contraction, times 6^ell.

    Each Greek letter is the symmetric tensor 6 T of the cubic a, with
    6 T_ijk = a_r i1! i2! i3! for the exponent triple (i1, i2, i3) of ijk;
    each determinant is the Levi-Civita tensor; each pairing contracts an
    index with the vector of its point variable, and a pairing of two
    vectors (u_y) is their dot product.  Independent of the expansion: no
    monomial is ever formed.
    """
    t6 = np.empty((3, 3, 3), object)
    eps = np.zeros((3, 3, 3), object)
    for idx in product(range(3), repeat=3):
        e = tuple(idx.count(i) for i in range(3))
        t6[idx] = a[A_INDEX[e]] * factorial(e[0]) * factorial(e[1]) * factorial(e[2])
        if e == (1, 1, 1):
            eps[idx] = 1 if idx in ((0, 1, 2), (1, 2, 0), (2, 0, 1)) else -1
    labels = iter(string.ascii_letters.replace("Z", ""))   # Z is the output axis
    operands, subscripts, letters = [], [], {}
    scalar = 1

    def leg(sym, label):
        if sym in br.GREEK:
            letters.setdefault(sym, []).append(label)
        else:
            operands.append(np.array(vecs[sym], object))
            subscripts.append(label)

    for atom, exp in term.factors:
        for _ in range(exp):
            if isinstance(atom, br.Det3):
                rows = [next(labels) for _ in range(3)]
                operands.append(eps)
                subscripts.append("".join(rows))
                for sym, label in zip(atom.rows, rows):
                    leg(sym, label)
            elif atom.left in br.GREEK:
                label = next(labels)
                leg(atom.left, label)
                leg(atom.right, label)
            else:
                scalar *= sum(p * q for p, q in zip(vecs[atom.left], vecs[atom.right]))
    for legs in letters.values():
        operands.append(t6)
        subscripts.append("".join(legs))
    # every operand carries a size-1 output axis Z, so that contracting a
    # connected piece yields an array, not an object scalar einsum cannot
    # pair again; greedy pairwise order, with room for the intermediates that
    # the default limit (the largest input) refuses, which would leave
    # determinant-only networks such as Phi600 as one 3^k loop
    eq = ",".join(sub + "Z" for sub in subscripts) + "->Z"
    operands = [op[..., None] for op in operands]
    path, _ = np.einsum_path(eq, *operands, optimize=("greedy", 3 ** 6))
    (value,) = np.einsum(eq, *operands, optimize=path)
    return scalar * value


def random_point(rng):
    a = [rng.randint(-9, 9) for _ in range(10)]
    vecs = {s: [rng.randint(-9, 9) for _ in range(3)] for s in br.LINE_VARS + br.POINT_VARS}
    values = {f"a{r}": a[r] for r in range(10)}
    values.update({f"{s}{i + 1}": vecs[s][i] for s in vecs for i in range(3)})
    return a, vecs, values


# contraction / (6^ell x evaluated primitive expansion), one constant per entry
CONTRACTION_RATIOS = {
    "Phi222": Fraction(1, 18), "Phi303": Fraction(1, 9), "Phi330": Fraction(1, 18),
    "Phi400": Fraction(1, 54), "Phi406": Fraction(-2, 27),
    "Phi406_dualcurve": Fraction(-2, 27), "Phi441": Fraction(1, 27),
    "Phi503": Fraction(-1, 162), "Phi600": Fraction(-1, 972), "Phi814": Fraction(-2, 729),
    "Psi21": Fraction(1, 3), "Psi42": Fraction(1, 6), "Psi51": Fraction(1, 3),
    "Psi54": Fraction(1, 3),
}


@pytest.mark.parametrize("name", sorted(br.CATALOG))
def test_catalog_matches_tensor_contraction(name):
    assert set(CONTRACTION_RATIOS) == set(br.CATALOG)
    conc = br.catalog_concomitant(name)
    (term,) = br.catalog(name).terms
    rng = random.Random(f"contract-{name}")
    for _ in range(3):
        a, vecs, values = random_point(rng)
        value = conc.poly.evaluate(values)
        assert value, name
        ratio = Fraction(contract(term, a, vecs), 6 ** conc.ctype.degree * value)
        assert ratio == CONTRACTION_RATIOS[name], name


@settings(max_examples=40, deadline=None)
@given(bracket_products(), st.randoms(use_true_random=False))
def test_expansion_matches_tensor_contraction(src, rng):
    # the unnormalized expansion carries 3! per letter, as 6 T does
    (term,) = br.parse(src).terms
    a, vecs, values = random_point(rng)
    raw = Poly(_expanded_term(term))
    assert raw.evaluate(values) == contract(term, a, vecs)
