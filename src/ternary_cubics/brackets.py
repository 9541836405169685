"""The classical symbolic method for ternary cubics.

A bracket expression is a sum of terms, each a rational coefficient times a
product of factors:

    pairings       alpha_x, alpha_y, u_y, v_x   (left symbol paired with a
                   point variable)
    determinants   (alpha beta gamma), (alpha beta u), (alpha u v), ...
                   3x3 determinants whose rows are Greek letters or the line
                   variables u, v

In every term each Greek letter must occur exactly three times; expansion
replaces a completed letter's monomial alpha1^i1 alpha2^i2 alpha3^i3 by the
cubic coefficient a_r with exponent triple (i1,i2,i3), weighted by
i1! i2! i3! / 3!.  The result is an exact polynomial in (a, x, u) (or
(a, x, u, y, v) for syzygy expressions), normalized to primitive integer
coefficients with positive leading term.

Grammar (ASCII):

    expr   := ['+'|'-'] term (('+'|'-') term)* ;
    term   := [rational] factor+ ;
    factor := atom ['^' uint] ;
    atom   := '(' sym sym sym ')' | sym '_' pvar ;
    sym    := 'alpha'|'beta'|'gamma'|'delta'|'epsilon'|'zeta'|'eta'|'theta'|'u'|'v' ;
    pvar   := 'x'|'y' ;
"""

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import factorial

from . import linalg
from .poly import A_INDEX, Poly, generic_cubic, monomial

GREEK = ("alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta", "theta")
LINE_VARS = ("u", "v")
POINT_VARS = ("x", "y")


class BracketSyntaxError(ValueError):
    pass


class BracketTypeError(ValueError):
    pass


@dataclass(frozen=True)
class Pair:
    left: str   # greek | 'u' | 'v'
    right: str  # 'x' | 'y'


@dataclass(frozen=True)
class Det3:
    rows: tuple  # three distinct symbols, each greek | 'u' | 'v'


@dataclass(frozen=True)
class Term:
    coeff: Fraction
    factors: tuple  # (factor, exponent) pairs


@dataclass(frozen=True)
class BracketExpr:
    terms: tuple


@dataclass(frozen=True)
class ConcomitantType:
    degree: int  # ell: degree in a
    order: int   # m: degree in x
    klass: int   # n: degree in u
    extra: tuple = ()  # (y-degree, v-degree) when nonzero

    def as_tuple(self):
        return (self.degree, self.order, self.klass)


class Concomitant:
    """Expanded concomitant: primitive integer Poly plus its type."""

    def __init__(self, poly, ctype):
        self.poly = poly
        self.ctype = ctype
        self.is_zero = not poly


# Each is matched where the last match ended, after optional whitespace.  A
# factor is a determinant (s s s) or a pairing sym_pvar, with an optional ^uint.
_SIGN_RE = re.compile(r"\s*([+-])")
_COEFF_RE = re.compile(r"\s*(\d+(?:/\d+)?)")
_FACTOR_RE = re.compile(r"\s*(?:\(\s*([a-z]+)\s+([a-z]+)\s+([a-z]+)\s*\)|([a-z]+)_([a-z]+))"
                        r"(?:\s*\^\s*(\d+))?")


def _syntax_error(src, pos, what):
    pos += len(src[pos:]) - len(src[pos:].lstrip())
    return BracketSyntaxError(f"{what} at position {pos}: {src[pos:pos + 10]!r}")


def _atom(src, m):
    """The Det3 or Pair spelled by a _FACTOR_RE match, its symbols checked."""
    for g in (1, 2, 3, 4):
        if m[g] is not None and m[g] not in GREEK + LINE_VARS:
            raise _syntax_error(src, m.start(g), f"unknown symbol {m[g]!r}")
    if m[1] is None:
        if m[5] not in POINT_VARS:
            raise _syntax_error(src, m.start(5), f"unknown point variable {m[5]!r}")
        return Pair(m[4], m[5])
    if len({m[1], m[2], m[3]}) < 3:
        raise _syntax_error(src, m.start(), "determinant rows must be distinct")
    return Det3(m.group(1, 2, 3))


def parse(src):
    """Parse a bracket expression in the DSL grammar."""
    terms = []
    pos = 0
    while not terms or src[pos:].strip():
        sign = _SIGN_RE.match(src, pos)
        if sign:
            pos = sign.end()
        elif terms:
            raise _syntax_error(src, pos, "expected '+' or '-'")
        coeff = Fraction(-1 if sign and sign[1] == "-" else 1)
        if m := _COEFF_RE.match(src, pos):
            if re.search(r"/0+$", m[1]):
                raise _syntax_error(src, pos, "zero denominator")
            coeff *= Fraction(m[1])
            pos = m.end()
        factors = []
        while m := _FACTOR_RE.match(src, pos):
            factors.append((_atom(src, m), int(m[6] or 1)))
            pos = m.end()
        if not factors:
            raise _syntax_error(src, pos, "expected a factor")
        terms.append(Term(coeff, tuple(factors)))
    return BracketExpr(tuple(terms))


def _term_counts(term):
    greek = {}
    counts = {"x": 0, "y": 0, "u": 0, "v": 0}
    for atom, exp in term.factors:
        if isinstance(atom, Pair):
            if atom.left in GREEK:
                greek[atom.left] = greek.get(atom.left, 0) + exp
            else:
                counts[atom.left] += exp
            counts[atom.right] += exp
        else:
            for r in atom.rows:
                if r in GREEK:
                    greek[r] = greek.get(r, 0) + exp
                else:
                    counts[r] += exp
    return greek, counts


def validate(expr):
    """Check the occurrence rules; return the common ConcomitantType."""
    types = set()
    for term in expr.terms:
        greek, counts = _term_counts(term)
        for g, c in greek.items():
            if c != 3:
                raise BracketTypeError(f"Greek letter {g} occurs {c} times, need 3")
        types.add((len(greek), counts["x"], counts["u"], counts["y"], counts["v"]))
    if len(types) > 1:
        raise BracketTypeError(f"terms of mixed type: {sorted(types)}")
    ell, mx, nu, my, nv = types.pop()
    extra = (my, nv) if (my or nv) else ()
    return ConcomitantType(ell, mx, nu, extra)


# ---------------------------------------------------------------------------
# Expansion.  A partial term of one product is keyed by a single int made of
# fixed-width bit fields, lowest first:
#
#     3 fields per Greek letter of the term   (alpha1, alpha2, alpha3, beta1, ...)
#     3 fields each for u, v, x, y            (exponents of u1..u3, ..., y1..y3)
#     10 fields counting the a-indices        (exponent of a0, ..., a9)
#
# Multiplying a term by one summand of a factor adds a precomputed delta to its
# key.  A field never exceeds its bound: 3 for a letter field (each letter
# occurs three times), the total count of u, v, x or y for theirs, and the
# number of letters for an a-field.  The field width is the bit length of the
# largest bound, so no add can carry into the next field.
#
# A Greek letter is substituted in the same pass as the factor that consumes
# its last occurrence: its 3-field triple (i1, i2, i3) is read off the key and
# looked up in a per-letter table giving the key shift (clear the triple, add
# one to the a_r field with A_INDEX[(i1, i2, i3)] == r) and the weight
# i1! i2! i3!.  Coefficients thereby carry a global 3! per letter, which
# primitive normalization removes at the end.  Keys become Poly monomials only
# once every letter is gone.
# ---------------------------------------------------------------------------

_SLOT_SYMS = LINE_VARS + POINT_VARS
_DET_PERMS = (((0, 1, 2), 1), ((1, 2, 0), 1), ((2, 0, 1), 1),
              ((0, 2, 1), -1), ((2, 1, 0), -1), ((1, 0, 2), -1))


def _atom_syms(atom):
    return (atom.left, atom.right) if isinstance(atom, Pair) else atom.rows


def _factor_order(term, greek):
    """Factor occurrences, greedily ordered so letters complete as early as possible."""
    remaining = [atom for atom, exp in term.factors for _ in range(exp)]
    ordered = []
    live = []
    while remaining:
        def score(atom):
            gs = [s for s in _atom_syms(atom) if s in greek]
            # prefer factors that touch letters already live and add few new ones
            return (sum(1 for s in gs if s not in live),
                    -sum(1 for s in gs if s in live))
        best = min(remaining, key=score)
        remaining.remove(best)
        ordered.append(best)
        live.extend(s for s in _atom_syms(best) if s in greek and s not in live)
    return ordered


def _key_layout(letters, counts):
    """(field width, {(symbol, component): field index}) for the packed keys."""
    bounds = [3] * (3 * len(letters))
    for s in _SLOT_SYMS:
        bounds += [counts[s]] * 3
    bounds += [len(letters)] * 10
    width = max(bounds).bit_length()
    assert all(b < 1 << width for b in bounds), "packed key field would carry"
    fields = [(g, i) for g in letters for i in range(3)] + \
             [(s, i) for s in _SLOT_SYMS for i in range(3)]
    return width, {name: j for j, name in enumerate(fields)}


def _expand_term(term):
    """Expand one product term; returns {Poly monomial: int coeff}."""
    greek, counts = _term_counts(term)
    letters = sorted(greek)
    width, field = _key_layout(letters, counts)

    def bit(sym, comp):
        return 1 << (width * field[(sym, comp)])

    a_base = width * len(field)
    triple_mask = (1 << 3 * width) - 1
    # per letter: triple -> (key shift, i1! i2! i3!)
    subst = {}
    for g in letters:
        low = width * field[(g, 0)]
        table = {}
        for (i1, i2, i3), r in A_INDEX.items():
            t = i1 | i2 << width | i3 << 2 * width
            table[t] = ((1 << a_base + width * r) - (t << low),
                        factorial(i1) * factorial(i2) * factorial(i3))
        subst[g] = (low, table)

    left = dict(greek)
    terms = {0: 1}
    for atom in _factor_order(term, greek):
        if isinstance(atom, Pair):
            facs = [(bit(atom.left, i) + bit(atom.right, i), 1) for i in range(3)]
        else:
            facs = [(sum(bit(row, comp) for row, comp in zip(atom.rows, perm)), sgn)
                    for perm, sgn in _DET_PERMS]
        done = []
        for s in _atom_syms(atom):
            if s in left:
                left[s] -= 1
                if not left[s]:
                    done.append(subst[s])
        new = {}
        get = new.get
        for key, coeff in terms.items():
            for delta, sgn in facs:
                k = key + delta
                c = coeff * sgn
                for low, table in done:
                    shift, mult = table[k >> low & triple_mask]
                    k += shift
                    c *= mult
                new[k] = get(k, 0) + c
        terms = {k: c for k, c in new.items() if c}

    # every letter is substituted: only the u, v, x, y and a fields remain
    names = [f"{s}{i + 1}" for s in _SLOT_SYMS for i in range(3)] + \
            [f"a{r}" for r in range(10)]
    mask = (1 << width) - 1
    base = 3 * len(letters) * width
    out = {}
    for key, coeff in terms.items():
        key >>= base
        pairs = []
        for name in names:
            if key & mask:
                pairs.append((name, key & mask))
            key >>= width
        out[monomial(pairs)] = coeff
    return out


def expand(expr):
    """Expand a parsed bracket expression into a primitive Concomitant.

    A zero result is legal (the expression "vanishes identically after
    substitution") and is flagged on the Concomitant.
    """
    ctype = validate(expr)
    acc = Poly((m, term.coeff * c)
               for term in expr.terms for m, c in _expand_term(term).items())
    if acc:
        _, acc = acc.content_and_primitive()
    return Concomitant(acc, ctype)


# ---------------------------------------------------------------------------
# Catalog: the named concomitants and syzygy expressions, verbatim.
# ---------------------------------------------------------------------------

CATALOG = {
    "Phi222": "(alpha beta u)^2 alpha_x beta_x",
    "Phi303": "(alpha beta gamma) (alpha beta u) (alpha gamma u) (beta gamma u)",
    "Phi330": "(alpha beta gamma)^2 alpha_x beta_x gamma_x",
    "Phi406": "(alpha beta u)^2 (gamma delta u)^2 (alpha delta u) (beta gamma u)",
    "Phi406_dualcurve": "(alpha beta u)^2 (gamma delta u)^2 (alpha gamma u) (beta delta u)",
    "Phi441": "(alpha beta gamma) (alpha gamma delta) (alpha beta u) beta_x gamma_x delta_x^2",
    "Phi400": "(alpha beta gamma) (alpha beta delta) (alpha gamma delta) (beta gamma delta)",
    "Phi503": "(alpha beta gamma) (alpha beta delta) (beta gamma epsilon) (alpha gamma u) (delta epsilon u)^2",
    "Phi600": "(alpha beta gamma) (alpha beta delta) (beta gamma epsilon) (alpha gamma zeta) (delta epsilon zeta)^2",
    "Phi814": "alpha_x (alpha beta gamma) (alpha beta delta) (beta gamma epsilon) "
              "(gamma zeta u) (delta epsilon u) (delta eta u) (epsilon theta u) (zeta eta theta)^2",
    "Psi54": "(alpha u v)^2 alpha_y v_x^2",
    "Psi51": "alpha_x alpha_y^2 v_x u_y^2",
    "Psi42": "(alpha u v) alpha_x alpha_y v_x u_y",
    "Psi21": "(alpha u v) alpha_x^2 u_y",
}

# declared (degree, order, class) for the catalog, used as a sanity cross-check
CATALOG_TYPES = {
    "Phi222": (2, 2, 2), "Phi303": (3, 0, 3), "Phi330": (3, 3, 0),
    "Phi406": (4, 0, 6), "Phi406_dualcurve": (4, 0, 6), "Phi441": (4, 4, 1),
    "Phi400": (4, 0, 0), "Phi503": (5, 0, 3), "Phi600": (6, 0, 0),
    "Phi814": (8, 1, 4),
    # the syzygy concomitants also carry (y, v) degrees, recorded in extra
    "Psi54": (1, 2, 2), "Psi51": (1, 2, 2), "Psi42": (1, 2, 2),
    "Psi21": (1, 2, 2),
}


def catalog(name):
    """The named bracket expression, parsed."""
    if name not in CATALOG:
        raise KeyError(f"unknown concomitant {name!r}; have {sorted(CATALOG)}")
    return parse(CATALOG[name])


@lru_cache(maxsize=None)
def catalog_concomitant(name):
    """The expanded catalog entry, computed once per process."""
    return expand(catalog(name))


def hessian_oracle(a_values):
    """det of the 3x3 matrix of second partials of F = sum a_r x^r.

    Independent of the bracket route; degree 3 in x.
    """
    F = generic_cubic().substitute({f"a{r}": Poly.const(a_values[r]) for r in range(10)})

    def diff(p, xv):
        return Poly((monomial(mo + ((xv, -1),)), c * e)
                    for mo, c in p.terms.items() for v, e in mo if v == xv)

    xs = ("x1", "x2", "x3")
    H = [[diff(diff(F, xi), xj) for xj in xs] for xi in xs]
    det = Poly()
    for perm, sgn in _DET_PERMS:
        term = Poly.const(sgn)
        for i in range(3):
            term = term * H[i][perm[i]]
        det = det + term
    return det


_A_VARS = {f"a{r}": r for r in range(10)}


def evaluate_at_cubic(conc, a_values):
    """Substitute numeric a-values into a concomitant; Poly in the rest.

    One pass over the terms: each term's a-part becomes a number, and the
    numbers are summed per remaining (x, u, ...) monomial, exactly.
    """
    terms = []
    for mo, c in conc.poly.terms.items():
        rest = []
        for v, e in mo:
            r = _A_VARS.get(v)
            if r is None:
                rest.append((v, e))
            else:
                c *= a_values[r] ** e
        terms.append((tuple(rest), c))
    return Poly(terms)


def vanishes_at_cubic(conc, a_values, p):
    """Whether every (x, u, ...)-coefficient of conc vanishes at a_values mod p."""
    p = linalg.check_prime(p)
    value = evaluate_at_cubic(conc, [a % p for a in a_values])
    return all(c % p == 0 for c in value.terms.values())
