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

    expr   := term (('+'|'-') term)* ;
    term   := [rational] factor+ ;
    factor := atom ['^' uint] ;
    atom   := '(' sym sym sym ')' | sym '_' pvar ;
    sym    := 'alpha'|'beta'|'gamma'|'delta'|'epsilon'|'zeta'|'eta'|'theta'|'u'|'v' ;
    pvar   := 'x'|'y' ;
"""

import re
from dataclasses import dataclass
from fractions import Fraction
from math import factorial

from . import linalg
from .poly import A_EXPS, A_INDEX, Poly, generic_cubic, monomial

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

    def __init__(self, poly, ctype, source=None):
        self.poly = poly
        self.ctype = ctype
        self.source = source
        self.is_zero = not poly

    def coefficients(self, families=("x", "u", "y", "v")):
        """Coefficient polynomials in a, collected by the (x,u,y,v) monomial."""
        return self.poly.collect(families)


_TOKEN_RE = re.compile(
    r"\s*(?:(?P<lpar>\()|(?P<rpar>\))|(?P<caret>\^)|(?P<plus>\+)|(?P<minus>-)"
    r"|(?P<rat>\d+(?:/\d+)?)|(?P<pair>[a-z]+_[a-z])|(?P<sym>[a-z]+))"
)


def _tokenize(src):
    pos = 0
    tokens = []
    while pos < len(src):
        m = _TOKEN_RE.match(src, pos)
        if not m or m.end() == pos:
            raise BracketSyntaxError(f"syntax error at position {pos}: {src[pos:pos+10]!r}")
        pos = m.end()
        kind = m.lastgroup
        tokens.append((kind, m.group(kind), m.start(kind)))
    return tokens


def parse(src):
    """Parse a bracket expression in the DSL grammar."""
    tokens = _tokenize(src)
    i = 0

    def peek():
        return tokens[i] if i < len(tokens) else (None, None, len(src))

    def parse_sym(tok):
        kind, val, at = tok
        if kind != "sym":
            raise BracketSyntaxError(f"expected symbol at position {at}, got {val!r}")
        if val not in GREEK and val not in LINE_VARS:
            raise BracketSyntaxError(f"unknown symbol {val!r} at position {at}")
        return val

    terms = []
    sign = 1
    while i < len(tokens):
        kind, val, at = peek()
        if kind == "plus":
            sign = 1
            i += 1
            continue
        if kind == "minus":
            sign = -1
            i += 1
            continue
        coeff = Fraction(sign)
        sign = 1
        if kind == "rat":
            coeff *= Fraction(val)
            i += 1
        factors = []
        while i < len(tokens):
            kind, val, at = peek()
            if kind in ("plus", "minus"):
                break
            if kind == "lpar":
                i += 1
                rows = []
                for _ in range(3):
                    rows.append(parse_sym(peek()))
                    i += 1
                kind, val, at = peek()
                if kind != "rpar":
                    raise BracketSyntaxError(f"expected ')' at position {at}")
                i += 1
                if len(set(rows)) != 3:
                    raise BracketSyntaxError(f"determinant rows must be distinct: {rows}")
                atom = Det3(tuple(rows))
            elif kind == "pair":
                left, _, right = val.partition("_")
                if left not in GREEK and left not in LINE_VARS:
                    raise BracketSyntaxError(f"unknown symbol {left!r} at position {at}")
                if right not in POINT_VARS:
                    raise BracketSyntaxError(
                        f"unknown point-variable {right!r} at position {at}")
                i += 1
                atom = Pair(left, right)
            elif kind == "rat":
                raise BracketSyntaxError(f"unexpected number at position {at}")
            else:
                raise BracketSyntaxError(f"unexpected token {val!r} at position {at}")
            exp = 1
            kind, val, at = peek()
            if kind == "caret":
                i += 1
                kind, val, at = peek()
                if kind != "rat" or "/" in val:
                    raise BracketSyntaxError(f"expected integer exponent at position {at}")
                exp = int(val)
                i += 1
            factors.append((atom, exp))
        if not factors:
            raise BracketSyntaxError("empty term")
        terms.append(Term(coeff, tuple(factors)))
    if not terms:
        raise BracketSyntaxError("empty expression")
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
# Expansion.  Terms are dicts keyed by flat exponent tuples over the active
# slot list (3 per live Greek letter + u, v, x, y slots), with the already-
# substituted a-part carried as a sorted tuple of a-indices.  Each Greek
# letter is substituted as soon as all its occurrences are consumed, keeping
# intermediate term counts bounded.  Coefficients are scaled by 3! per letter
# so that everything stays integral; primitive normalization removes the
# global constant at the end.
# ---------------------------------------------------------------------------

_SLOT_SYMS = LINE_VARS + POINT_VARS


def _factor_terms(atom, slot_of):
    """List of (delta dict slot->exp, coeff) for one factor occurrence."""
    out = []
    if isinstance(atom, Pair):
        for i in range(3):
            out.append(({slot_of[(atom.left, i)]: 1, slot_of[(atom.right, i)]: 1}, 1))
    else:
        r1, r2, r3 = atom.rows
        for p, sgn in (((0, 1, 2), 1), ((1, 2, 0), 1), ((2, 0, 1), 1),
                       ((0, 2, 1), -1), ((2, 1, 0), -1), ((1, 0, 2), -1)):
            delta = {}
            for row, comp in zip((r1, r2, r3), p):
                delta[slot_of[(row, comp)]] = delta.get(slot_of[(row, comp)], 0) + 1
            out.append((delta, sgn))
    return out


def _expand_term(term):
    """Expand one product term; returns dict {(slots-exps, a-tuple): int coeff}."""
    greek, _ = _term_counts(term)
    letters = sorted(greek)
    # order factor occurrences greedily so letters complete as early as possible
    occurrences = []
    for atom, exp in term.factors:
        occurrences.extend([atom] * exp)
    ordered = []
    remaining = list(occurrences)
    live = []
    while remaining:
        def score(atom):
            syms = ([atom.left] if isinstance(atom, Pair) else list(atom.rows))
            gs = [s for s in syms if s in GREEK]
            new = sum(1 for s in gs if s not in live)
            # prefer factors that touch letters already live and add few new ones
            return (new, -len([s for s in gs if s in live]))
        best = min(remaining, key=score)
        remaining.remove(best)
        ordered.append(best)
        for s in ([best.left] if isinstance(best, Pair) else best.rows):
            if s in GREEK and s not in live:
                live.append(s)

    # per-letter remaining occurrence counts, updated as factors are consumed
    remaining_count = dict(greek)

    slot_names = [(g, i) for g in letters for i in range(3)] + \
                 [(s, i) for s in _SLOT_SYMS for i in range(3)]
    slot_of = {name: j for j, name in enumerate(slot_names)}
    nslots = len(slot_names)
    letter_slots = {g: tuple(slot_of[(g, i)] for i in range(3)) for g in letters}

    terms = {(tuple([0] * nslots), ()): 1}
    for atom in ordered:
        facs = _factor_terms(atom, slot_of)
        new = {}
        for (exps, apart), coeff in terms.items():
            for delta, sgn in facs:
                e = list(exps)
                for sl, d in delta.items():
                    e[sl] += d
                key = (tuple(e), apart)
                c = new.get(key, 0) + coeff * sgn
                if c:
                    new[key] = c
                else:
                    new.pop(key, None)
        terms = new
        # decrement letters consumed by this factor
        syms = [atom.left] if isinstance(atom, Pair) else list(atom.rows)
        done = []
        for s in syms:
            if s in GREEK:
                remaining_count[s] -= 1
                if remaining_count[s] == 0:
                    done.append(s)
        for g in done:
            sl = letter_slots[g]
            new = {}
            for (exps, apart), coeff in terms.items():
                i1, i2, i3 = exps[sl[0]], exps[sl[1]], exps[sl[2]]
                r = A_INDEX[(i1, i2, i3)]
                mult = factorial(i1) * factorial(i2) * factorial(i3)
                e = list(exps)
                e[sl[0]] = e[sl[1]] = e[sl[2]] = 0
                key = (tuple(e), tuple(sorted(apart + (r,))))
                c = new.get(key, 0) + coeff * mult
                if c:
                    new[key] = c
                else:
                    new.pop(key, None)
            terms = new
    # convert to Poly monomial keys
    out = {}
    base = 3 * len(letters)
    for (exps, apart), coeff in terms.items():
        pairs = [(f"a{r}", 1) for r in apart]
        for j, (s, i) in enumerate(slot_names[base:], start=base):
            if exps[j]:
                pairs.append((f"{s}{i + 1}", exps[j]))
        key = monomial(pairs)
        c = out.get(key, 0) + coeff
        if c:
            out[key] = c
        else:
            out.pop(key, None)
    return out


def expand(expr_or_src, normalize=True):
    """Expand a (parsed or source) bracket expression into a Concomitant.

    A zero result is legal (the expression "vanishes identically after
    substitution") and is flagged on the Concomitant.
    """
    expr = parse(expr_or_src) if isinstance(expr_or_src, str) else expr_or_src
    ctype = validate(expr)
    acc = Poly()
    for term in expr.terms:
        raw = _expand_term(term)
        acc = acc + Poly({m: term.coeff * c for m, c in raw.items()})
    if acc and normalize:
        _, acc = acc.content_and_primitive()
    return Concomitant(acc, ctype, source=expr)


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


_EXPAND_CACHE = {}


def catalog_concomitant(name):
    if name not in _EXPAND_CACHE:
        _EXPAND_CACHE[name] = expand(catalog(name))
    return _EXPAND_CACHE[name]


def hessian_oracle(a_values):
    """det of the 3x3 matrix of second partials of F = sum a_r x^r.

    Independent of the bracket route; degree 3 in x.
    """
    F = generic_cubic().substitute({f"a{r}": Poly.const(a_values[r]) for r in range(10)})

    def diff(p, xv):
        out = Poly()
        for mo, c in p.terms.items():
            d = dict(mo)
            e = d.get(xv, 0)
            if e:
                d[xv] = e - 1
                out = out + Poly({monomial(d.items()): c * e})
        return out

    xs = ("x1", "x2", "x3")
    H = [[diff(diff(F, xi), xj) for xj in xs] for xi in xs]
    det = Poly()
    for perm, sgn in (((0, 1, 2), 1), ((1, 2, 0), 1), ((2, 0, 1), 1),
                      ((0, 2, 1), -1), ((2, 1, 0), -1), ((1, 0, 2), -1)):
        term = Poly.const(sgn)
        for i in range(3):
            term = term * H[i][perm[i]]
        det = det + term
    return det


def evaluate_at_cubic(conc, a_values):
    """Substitute numeric a-values into a concomitant; Poly in the rest."""
    return conc.poly.substitute({f"a{r}": Poly.const(a_values[r]) for r in range(10)})


def vanishes_at_cubic(conc, a_values, p):
    """Whether every (x, u, ...)-coefficient of conc vanishes at a_values mod p."""
    p = linalg.check_prime(p)
    acc = {}
    for mo, c in conc.poly.terms.items():
        val = int(c) % p
        rest = []
        for v, e in mo:
            if v.startswith("a"):
                val = val * pow(a_values[int(v[1:])] % p, e, p) % p
            else:
                rest.append((v, e))
        key = tuple(rest)
        acc[key] = (acc.get(key, 0) + val) % p
    return not any(acc.values())
