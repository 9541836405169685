"""Semistandard tableaux on two-row shapes and harmonic projection.

Shapes are (m+n, n) with entries in {1,2,3}.  Each tableau T yields a signed
monomial X_T in the point variables x and line variables u: the i-th column
pair (r_i, t_i) contributes x1, -x2, x3 for (2,3), (1,3), (1,2), and the
remaining first-row entries s_i contribute u_{s_i}.  The X_T form a basis of
the irreducible labelled (m+n, n).

A bihomogeneous polynomial of bidegree (dx, du) in (x, u) splits uniquely as
harmonic + trace * remainder, where trace = x1 u1 + x2 u2 + x3 u3 and the
harmonic part lies in the span of the X_T for the shape (dx+du, dx).  This
linear-algebra projection plays the role of the straightening law: it lands
arbitrary monomials on the tableau basis.

The module works in x and u only.  A caller whose polynomial lives in other
copies of the point and line variables (the y and v of the syzygy
concomitants) renames them to x and u before projecting.  Every Fraction
system here is solved by _solve, one linalg._rref_frac call per bidegree with
the right-hand sides riding along as an augmented block.  The projection
itself does no Fraction arithmetic per term: _projection_table holds each
bidegree's solution as one integer matrix over one denominator, and
harmonic_project is one integer array product with it.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import combinations_with_replacement
from math import factorial, lcm

import numpy as np

from . import linalg
from .poly import Poly, linear_form, mono_mul, monomial

COLUMN_SIGNS = {(2, 3): ("x1", 1), (1, 3): ("x2", -1), (1, 2): ("x3", 1)}
_INT64_BOUND = 1 << 63


@lru_cache(maxsize=None)
def enumerate_tableaux(m, n):
    """All semistandard tableaux on shape (m+n, n), lexicographic on (row1, row2).

    A tableau is ((row1 entries), (row2 entries)).
    """
    if m < 0 or n < 0:
        raise ValueError("m, n >= 0")
    # row1 = 1^a 2^b 3^c and row2 = 2^d 3^(n-d): the columns increase
    # strictly exactly when d <= a and n <= a + b.  Descending a, b, d is
    # lexicographic order.
    k = m + n
    return tuple([((1,) * a + (2,) * b + (3,) * (k - a - b), (2,) * d + (3,) * (n - d))
                  for a in range(k, -1, -1) for b in range(k - a, -1, -1) if n <= a + b
                  for d in range(min(a, n), -1, -1)])


def tableau_monomial(T):
    """The signed monomial X_T, as ((monomial pairs), sign)."""
    row1, row2 = T
    n = len(row2)
    pairs = []
    sign = 1
    for i in range(n):
        key = (row1[i], row2[i])
        if key not in COLUMN_SIGNS:
            raise ValueError(f"column {key} not strictly increasing")
        xv, s = COLUMN_SIGNS[key]
        pairs.append((xv, 1))
        sign *= s
    for s_entry in row1[n:]:
        pairs.append((f"u{s_entry}", 1))
    return monomial(pairs), sign


def tableau_poly(T):
    """X_T as a Poly."""
    mono, sign = tableau_monomial(T)
    return Poly({mono: sign})


def _xu_monomials(dx, du):
    out = []
    for cx in combinations_with_replacement((1, 2, 3), dx):
        for cu in combinations_with_replacement((1, 2, 3), du):
            out.append(monomial([(f"x{i}", 1) for i in cx] + [(f"u{i}", 1) for i in cu]))
    return out


def _solve(columns, rhs, monos):
    """Coordinates of each Poly in rhs on the Polys in columns, exactly over Q.

    Every Poly lives on the monomials monos.  [columns | rhs] is row-reduced
    once; the columns must be independent, so the pivots are 0..n-1 and row
    i holds coordinate i.  Raises RuntimeError if the columns are dependent
    or some right-hand side is outside their span.  Returns one coordinate
    list per right-hand side.
    """
    index = {mo: i for i, mo in enumerate(monos)}
    polys = [*columns, *rhs]
    A = [[Fraction(0)] * len(polys) for _ in monos]
    for j, p in enumerate(polys):
        for mo, c in p.terms.items():
            A[index[mo]][j] = Fraction(c)
    n = len(columns)
    if len(linalg._rref_frac(A, n)) != n:
        raise RuntimeError("the columns are dependent")
    if any(x for row in A[n:] for x in row[n:]):
        raise RuntimeError("a right-hand side is outside the span of the columns")
    return [[row[n + k] for row in A[:n]] for k in range(len(rhs))]


@lru_cache(maxsize=None)
def _projection_table(dx, du):
    """Each bidegree-(dx, du) monomial's coordinates as one integer matrix T
    over one denominator D.

    Solves mono = sum_T gamma_T X_T + trace * rest exactly over Q.  Returns
    (tableaux, smaller monomials, {monomial: row}, T, D).  Row i of T is D
    times the coordinates of the i-th monomial of bidegree (dx, du): its
    gamma on the tableaux, then its rest on the smaller monomials of
    bidegree (dx - 1, du - 1).
    """
    tabs = enumerate_tableaux(du, dx)
    monos = _xu_monomials(dx, du)
    smaller = _xu_monomials(dx - 1, du - 1) if dx and du else []
    trace = trace_poly()
    rows = _solve([tableau_poly(T) for T in tabs] + [trace * Poly({sm: 1}) for sm in smaller],
                  [Poly({mo: 1}) for mo in monos], monos)
    D = lcm(*(x.denominator for row in rows for x in row))
    T = np.array([[int(x * D) for x in row] for row in rows], dtype=np.int64)
    return tabs, smaller, {mo: i for i, mo in enumerate(monos)}, T, D


def harmonic_project(p):
    """Split p = (harmonic on the X_T basis) + trace * remainder.

    p must be bihomogeneous in the x and u variables; other variables ride
    along as coefficients.  A polynomial in other copies of the point and
    line variables (y and v) is renamed to x and u by its caller first.
    Returns (coeffs, tableaux, remainder) where coeffs[i] is the Poly
    coefficient of X_{T_i}; every coefficient is a Fraction.

    Each term splits once into its (x, u) monomial, a row of the integer
    table T, and its outer monomial in the other variables.  The terms,
    scaled to integers by the lcm of their denominators, fill a matrix C of
    (outer, row) coefficients, and the single product C @ T holds every
    outer monomial's coordinates on the tableaux and the remainder.  It is
    int64 while sum |c| * max |T| < 2^63, which bounds every partial sum,
    and exact Python ints in object arrays past that.
    """
    if not p:
        return [], (), Poly()
    first = next(iter(p.terms))
    dx = sum(e for v, e in first if v[0] == "x")
    du = sum(e for v, e in first if v[0] == "u")
    tabs, smaller, row_of, T, D = _projection_table(dx, du)
    outer_of = {}
    rows, outer_ids = [], []
    for mo in p.terms:
        row = row_of.get(tuple(ve for ve in mo if ve[0][0] in "xu"))
        if row is None:
            raise ValueError("input not bihomogeneous")
        rows.append(row)
        outer_ids.append(outer_of.setdefault(tuple(ve for ve in mo if ve[0][0] not in "xu"),
                                             len(outer_of)))
    den = lcm(*(c.denominator for c in p.terms.values()))
    nums = [c.numerator * (den // c.denominator) for c in p.terms.values()]
    dtype = np.int64 if sum(map(abs, nums)) * int(np.abs(T).max()) < _INT64_BOUND else object
    C = np.zeros((len(outer_of), len(row_of)), dtype)
    C[outer_ids, rows] = nums
    acc = C @ T.astype(dtype, copy=False)

    outers = list(outer_of)
    scale = D * den
    cols = [[] for _ in range(acc.shape[1])]
    o, j = acc.nonzero()
    for oi, ji, v in zip(o.tolist(), j.tolist(), acc[o, j].tolist()):
        cols[ji].append((outers[oi], Fraction(v, scale)))
    ntabs = len(tabs)
    remainder = ((mono_mul(outer, sm), c) for sm, col in zip(smaller, cols[ntabs:])
                 for outer, c in col)
    return [Poly(col) for col in cols[:ntabs]], tabs, Poly(remainder)


def harmonic_dimension(dx, du):
    """Dimension of the harmonic subspace of bidegree (dx, du)."""
    return len(enumerate_tableaux(du, dx))


def trace_poly():
    """x1 u1 + x2 u2 + x3 u3."""
    return linear_form("u")


def omega(p):
    """The trace contraction sum_i d/dx_i d/du_i."""
    out = []
    for mo, c in p.terms.items():
        d = dict(mo)
        for i in (1, 2, 3):
            xv, uv = f"x{i}", f"u{i}"
            ex, eu = d.get(xv, 0), d.get(uv, 0)
            if ex and eu:
                out.append((monomial(mo + ((xv, -1), (uv, -1))), c * ex * eu))
    return Poly(out)


@lru_cache(maxsize=None)
def harmonic_representatives(dx, du):
    """The trace-free representative of each X_T in bidegree (dx, du).

    h_T = X_T - trace * g with omega(h_T) = 0; the quotient-basis coefficient
    extraction of harmonic_project is blind to the choice of representative,
    but the invariant pairing below is not.
    """
    tabs = enumerate_tableaux(du, dx)
    monos = _xu_monomials(dx - 1, du - 1)
    trace = trace_poly()
    X = [tableau_poly(T) for T in tabs]
    # g_T solves omega(trace * g_T) = omega(X_T), for every T at once
    G = _solve([omega(trace * Poly({m: 1})) for m in monos], [omega(x) for x in X], monos)
    out = []
    for x, g in zip(X, G):
        h = x - trace * Poly(zip(monos, g))
        if omega(h):
            raise RuntimeError("harmonic representative still has trace part")
        out.append(h)
    return tuple(out)


def _apolar(p1, p2):
    """p1 with point and line variables swapped, applied to p2 as derivations."""
    acc = Fraction(0)
    for m1, c1 in p1.terms.items():
        sw = monomial([("u" + v[1:], e) if v.startswith("x") else ("x" + v[1:], e)
                       for v, e in m1])
        c2 = p2.terms.get(sw)
        if c2:
            val = 1
            for _, e in sw:
                val *= factorial(e)
            acc += Fraction(c1) * Fraction(c2) * val
    return acc


@lru_cache(maxsize=None)
def invariant_gram(dx, du):
    """Gram matrix of the invariant pairing on the X_T quotient basis.

    Computed on trace-free representatives; this is the pairing that makes
    coefficient contraction of two tableau expansions equivariant.
    """
    harm = harmonic_representatives(dx, du)
    return tuple(tuple(_apolar(h1, h2) for h2 in harm) for h1 in harm)
