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

A concomitant is evaluated at a cubic, given by its 10 integer coefficients
a0..a9, in two ways.  evaluate_at_cubic substitutes them exactly and returns
a Poly in the remaining variables.  vanishes_at_cubics asks, for many cubics
at once, whether that Poly vanishes mod a prime: one int64 array pass over
an evaluation table cached on the Concomitant.  The exact evaluator is its
oracle in the tests.
"""

import re
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from math import comb, factorial, lcm

import numpy as np

from . import linalg
from .poly import A_INDEX, Poly, cubic_point, generic_cubic, monomial

GREEK = ("alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta", "theta")
LINE_VARS = ("u", "v")
POINT_VARS = ("x", "y")
_A_VARS = {f"a{r}": r for r in range(10)}


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

    @cached_property
    def _evaluation_table(self):
        """(exponents, coefficients, starts, largest) for vanishes_at_cubics.

        One row per term, the terms that share their remaining (x, u, y, v)
        monomial contiguous: exponents is the (T, 10) int64 array of their
        a0..a9 exponents and coefficients the list of their exact ints.
        starts holds the first row of each group, largest the size of the
        largest group.
        """
        groups = {}
        for mo, c in self.poly.terms.items():
            exps = [0] * 10
            rest = []
            for v, e in mo:
                r = _A_VARS.get(v)
                if r is None:
                    rest.append((v, e))
                else:
                    exps[r] = e
            groups.setdefault(tuple(rest), []).append((exps, c))
        rows = [row for group in groups.values() for row in group]
        sizes = [len(group) for group in groups.values()]
        exponents = np.array([exps for exps, _ in rows], np.int64).reshape(-1, 10)
        starts = np.cumsum([0] + sizes[:-1])
        return exponents, [c for _, c in rows], starts, max(sizes, default=0)


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
        for s in _atom_syms(atom):
            if s in GREEK:
                greek[s] = greek.get(s, 0) + exp
            else:
                counts[s] += exp
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
# Expansion.  The partial terms of one product are the rows of an (N, W)
# int64 key array, beside a vector of their coefficients.  A key row is a
# sequence of bit fields, lowest first:
#
#     3 fields per Greek letter of the term   (alpha1, alpha2, alpha3, beta1, ...)
#     3 fields each for u, v, x, y            (exponents of u1..u3, ..., y1..y3)
#     10 fields counting the a-indices        (exponent of a0, ..., a9)
#
# A field is as wide as the bit length of its bound: 3 for a letter field
# (each letter occurs three times), the total count of u, v, x or y for
# theirs, and the number of letters for an a-field.  A field whose bound is 0
# is dropped.  The fields fill 63-bit words in this order, and a field that
# would not fit in the current word starts the next one, so no field
# straddles a word and no add can carry into a neighbour.  The letter fields
# come first and take at most 8 x 6 bits, so they all lie in word 0.  Phi814
# packs into two words: 60 bits, then the 40 bits of the a-fields.
#
# The fold order is a contraction order, planned per term by _fold_order
# with a dynamic programme over the sets L of eliminated Greek letters
# (Pfeifer, Haegeman and Verstraete, Phys. Rev. E 90, 033315, 2014).  The
# step that eliminates a letter folds every occurrence touching it not folded
# yet; once all letters are eliminated the occurrences with no Greek letter
# (u_x, v_y, ...) follow.  After the step to L the accumulator holds at most
#
#     C(c + 9, 9) x prod C(k_g + 2, 2) x prod C(n_s + 2, 2)
#
# rows: c letters completed, k_g occurrences folded of each open letter g,
# n_s of each symbol s in u, v, x, y.  The plan is the chain of sets
# {} < L1 < ... < all letters, one letter at a time, that minimizes the sum
# of this bound; it is evaluated once per set, at most 2^8 = 256 times.
# Ties go to the earlier letter names, and the occurrences of a step are
# folded sorted by content, so the plan depends only on the factor
# multiset, not on the order written.  A test bounds the largest merge
# input of every catalog entry.
#
# A factor with s summands (3 for a pairing, 6 for a determinant) is folded
# by one merge: each summand's delta is added to the N key rows, all s N
# rows at once, the completed letters are substituted, and the rows are
# merged by np.lexsort and np.add.reduceat, zero sums dropped.  So s N rows
# and their sorted copy are live at once: Phi814 takes 10 merges, the
# largest of 145,512 rows (784,476 folded in the order written).
#
# A Greek letter is substituted in the same pass as the factor that consumes
# its last occurrence: its triple (i1, i2, i3), 2 bits each, is read off the
# key as a 6-bit code that indexes a 64-row table of key shifts (clear the
# triple, add one to the a_r field with A_INDEX[(i1, i2, i3)] == r) and of
# weights i1! i2! i3!.  Coefficients thereby carry a global 3! per letter,
# which the normalization in expand removes.
#
# Coefficients are exact.  They are int64 while the L1 bound of a factor's
# result, sum |c| x summands x 6^k for k letters completed by it, stays below
# _INT64_BOUND, and Python ints in an object array from the first factor
# past it on.
# ---------------------------------------------------------------------------

_SLOT_SYMS = LINE_VARS + POINT_VARS
_DET_PERMS = (((0, 1, 2), 1), ((1, 2, 0), 1), ((2, 0, 1), 1),
              ((0, 2, 1), -1), ((2, 1, 0), -1), ((1, 0, 2), -1))
_WORD_BITS = 63           # a key word stays a nonnegative int64
_INT64_BOUND = 1 << 63
# the monomial variables of a key, in poly.VAR_ORDER
_MONO_FIELDS = [(("a", r), f"a{r}") for r in range(10)] + \
               [((s, i), f"{s}{i + 1}") for s in ("x", "y", "u", "v") for i in range(3)]


def _atom_syms(atom):
    return (atom.left, atom.right) if isinstance(atom, Pair) else atom.rows


def _layout(letters, counts):
    """({field: (word, shift, width)}, word count) of the packed keys.

    A field is (letter, component), (u|v|x|y, component) or ("a", r).
    """
    bounds = [((g, i), 3) for g in letters for i in range(3)]
    bounds += [((s, i), counts[s]) for s in _SLOT_SYMS for i in range(3)]
    bounds += [(("a", r), len(letters)) for r in range(10)]
    fields = {}
    word = used = 0
    for name, bound in bounds:
        width = bound.bit_length()
        if not width:
            continue
        if used + width > _WORD_BITS:
            word, used = word + 1, 0
        fields[name] = (word, used, width)
        used += width
    return fields, word + 1


def _merge(keys, coeffs):
    """The rows sorted, equal keys summed into one row, zero sums dropped.

    The order is np.lexsort's, the last column first, by one sort per column
    from the first: an unstable argsort of the first column, then a stable one
    of each later column, which keeps the order of the columns before it.
    Equal rows may end up in any order, but they are summed into one row, and
    the distinct rows that remain have one lexicographic order.
    """
    order = np.argsort(keys[:, 0])
    for col in range(1, keys.shape[1]):
        order = order[np.argsort(keys[order, col], kind="stable")]
    keys, coeffs = keys[order], coeffs[order]
    first = np.ones(len(keys), bool)
    first[1:] = (keys[1:] != keys[:-1]).any(axis=1)
    starts = np.flatnonzero(first)
    if not len(starts):
        return keys, coeffs
    coeffs = np.add.reduceat(coeffs, starts)
    keep = coeffs != 0
    return keys[starts[keep]], coeffs[keep]


def _row_bound(folded, greek):
    """A bound on the accumulator's rows once the occurrences in folded are in.

    greek counts each letter's occurrences in the whole term.  A completed
    letter adds one a-index (C(c + 9, 9) monomials of degree c), an open
    letter or u, v, x, y symbol met k times an exponent triple of sum k.
    """
    met = Counter(s for atom in folded for s in _atom_syms(atom))
    rows = comb(sum(met[g] == k for g, k in greek.items()) + 9, 9)
    for s, k in met.items():
        if greek.get(s) != k:
            rows *= comb(k + 2, 2)
    return rows


def _fold_order(term, greek):
    """The term's factor occurrences, a power ^n as n copies, in the order
    of the cheapest letter-elimination chain (see the comment above)."""
    atoms = sorted((atom for atom, exp in term.factors for _ in range(exp)),
                   key=lambda atom: (isinstance(atom, Det3), _atom_syms(atom)))
    letters = sorted(greek)
    masks = [sum(1 << i for i, g in enumerate(letters) if g in _atom_syms(atom))
             for atom in atoms]
    # best[L]: (summed bound, letters in elimination order) of the cheapest chain to L
    best = [(0, ())]
    for L in range(1, 1 << len(letters)):
        rows = _row_bound([atom for atom, m in zip(atoms, masks) if m & L], greek)
        cost, chain = min((best[L ^ 1 << i][0], best[L ^ 1 << i][1] + (g,))
                          for i, g in enumerate(letters) if L >> i & 1)
        best.append((cost + rows, chain))
    order, done = [], 0
    for g in best[-1][1]:
        step = done | 1 << letters.index(g)
        order += [atom for atom, m in zip(atoms, masks) if m & step and not m & done]
        done = step
    return order + [atom for atom, m in zip(atoms, masks) if not m]


def _expand_term(term):
    """Expand one product term: (exponents, coefficients), a row per monomial
    of its exponents in _MONO_FIELDS order in a narrow unsigned dtype, and
    its exact nonzero integer coefficient, int64 or, past the bound, object."""
    greek, counts = _term_counts(term)
    fields, words = _layout(sorted(greek), counts)

    def delta(names):
        d = np.zeros(words, np.int64)
        for name in names:
            word, shift, _ = fields[name]
            d[word] += 1 << shift
        return d

    def substitution(g):
        """(word, low bit, key shifts, weights) for the completed letter g."""
        word, low, _ = fields[(g, 0)]
        shifts = np.zeros((64, words), np.int64)
        weights = np.zeros(64, np.int64)
        for (i1, i2, i3), r in A_INDEX.items():
            code = i1 | i2 << 2 | i3 << 4
            shifts[code, word] -= code << low
            a_word, a_shift, _ = fields[("a", r)]
            shifts[code, a_word] += 1 << a_shift
            weights[code] = factorial(i1) * factorial(i2) * factorial(i3)
        return word, low, shifts, weights

    left = dict(greek)
    keys = np.zeros((1, words), np.int64)
    coeffs = np.ones(1, np.int64)
    for atom in _fold_order(term, greek):
        if isinstance(atom, Pair):
            summands = [(delta([(atom.left, i), (atom.right, i)]), 1) for i in range(3)]
        else:
            summands = [(delta(zip(atom.rows, perm)), sgn) for perm, sgn in _DET_PERMS]
        deltas, signs = map(np.array, zip(*summands))
        done = []
        for s in _atom_syms(atom):
            if s in left:
                left[s] -= 1
                if not left[s]:
                    done.append(substitution(s))
        bound = int(np.abs(coeffs).sum()) * len(summands) * 6 ** len(done)
        if coeffs.dtype != object and bound >= _INT64_BOUND:
            coeffs = coeffs.astype(object)
        keys = (keys + deltas[:, None]).reshape(-1, words)
        coeffs = (signs[:, None] * coeffs).ravel()
        for word, low, shifts, weights in done:
            code = keys[:, word] >> low & 63
            keys += shifts[code]
            coeffs = coeffs * weights[code]
        keys, coeffs = _merge(keys, coeffs)

    # every letter is substituted: only the a, x, y, u and v fields remain
    largest = max(len(greek), *counts.values())   # no exponent is larger
    exps = np.zeros((len(keys), len(_MONO_FIELDS)), np.min_scalar_type(largest))
    for col, (f, _) in enumerate(_MONO_FIELDS):
        if f in fields:
            word, shift, width = fields[f]
            exps[:, col] = keys[:, word] >> shift & (1 << width) - 1
    return exps, coeffs


def expand(expr):
    """Expand a parsed bracket expression into a primitive Concomitant.

    The terms are scaled to integers by the common denominator of their
    coefficients, summed, and divided by the gcd, signed so that the leading
    term in graded-lex order is positive.  A zero result is legal (the
    expression "vanishes identically after substitution") and is flagged on
    the Concomitant.

    All but the final Poly runs on the arrays of _expand_term: the scaled
    coefficients (int64 under the bound), one _merge of the terms, the gcd
    and the leading row, by np.lexsort.
    """
    ctype = validate(expr)
    denom = lcm(*(t.coeff.denominator for t in expr.terms))
    # a term that expands to zero is dropped: its scale may not fit int64
    parts = [(*_expand_term(t), (t.coeff * denom).numerator) for t in expr.terms]
    parts = [part for part in parts if len(part[1])]
    if parts:
        bound = sum(int(np.abs(c).sum()) * abs(scale) for _, c, scale in parts)
        dtype = np.int64 if bound < _INT64_BOUND else object
        exps = np.concatenate([e for e, _, _ in parts])
        coeffs = np.concatenate([c.astype(dtype) * scale for _, c, scale in parts])
        if len(parts) > 1:
            exps, coeffs = _merge(exps, coeffs)
    if not parts or not len(coeffs):
        return Concomitant(Poly(), ctype)
    # graded-lex leading row: the highest degree, then the largest exponents
    # in _MONO_FIELDS order, which is poly.VAR_ORDER's
    lead = np.lexsort((*exps.T[::-1], exps.sum(axis=1)))[-1]
    g = np.gcd.reduce(coeffs)
    coeffs = coeffs // (g if coeffs[lead] > 0 else -g)
    # the monomials share their (variable, exponent) pairs; row i's are
    # flat[ends[i - 1]:ends[i]]
    top = int(exps.max()) + 1
    pairs = np.fromiter(((var, e) for _, var in _MONO_FIELDS for e in range(top)), object)
    rows, cols = np.nonzero(exps)
    flat = pairs[cols * top + exps[rows, cols]].tolist()
    ends = np.cumsum(np.count_nonzero(exps, axis=1)).tolist()
    monos = [tuple(flat[a:b]) for a, b in zip([0, *ends], ends)]
    return Concomitant(Poly(zip(monos, coeffs.tolist())), ctype)


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


def evaluate_at_cubic(conc, a_values):
    """Substitute numeric a-values into a concomitant; Poly in the rest.

    One pass over the terms: each term's a-part becomes a number, and the
    numbers are summed per remaining (x, u, ...) monomial, exactly.  The
    exact evaluator, and the oracle for vanishes_at_cubics.
    """
    a_values = cubic_point(a_values)
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


def vanishes_at_cubics(conc, points, p):
    """One bool per point: whether every (x, u, ...)-coefficient of conc
    vanishes mod p at that cubic.

    All points are evaluated at once, in int64 arrays, from the concomitant's
    evaluation table.  The points and the coefficients are reduced mod p, each
    point gets a table of the powers of its a_r, and a term's value at a
    point is its coefficient times one power per a_r, reduced after each
    product.  np.add.reduceat sums the values of each group of terms that
    share their remaining monomial, and a coefficient vanishes when its sum
    does mod p.

    int64 bound: residues lie below p < 2^27, so every product is below
    2^54; a group of n terms sums to at most n (p - 1), which must stay below
    2^63.  A concomitant with a group too large for p raises ValueError.
    """
    p = linalg.check_prime(p)
    a = np.array([[x % p for x in cubic_point(pt)] for pt in points], np.int64).reshape(-1, 10)
    exps, coeffs, starts, largest = conc._evaluation_table
    if largest * (p - 1) >= _INT64_BOUND:
        raise ValueError(f"a coefficient sums {largest} terms: n (p - 1) reaches 2^63 at p = {p}")
    if not coeffs:
        return [True] * len(a)
    powers = np.ones((len(a), 10, int(exps.max()) + 1), np.int64)
    for e in range(1, powers.shape[2]):
        powers[:, :, e] = powers[:, :, e - 1] * a % p
    values = np.array([c % p for c in coeffs], np.int64)
    for r in range(10):
        values = values * powers[:, r, exps[:, r]] % p
    sums = np.add.reduceat(values, starts, axis=1)
    return (sums % p == 0).all(axis=1).tolist()
