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
concomitants) renames them to x and u before projecting.  The trace is monic
in x1 u1, so _projection_table writes each bidegree's table down in closed
form, integer and with no system solved, and harmonic_project adds each
term's few nonzero table entries into one integer accumulator.  The
trace-free part of a polynomial, harmonic_part, has a closed form too, a
finite sum of powers of the trace times powers of its contraction omega, so
no system is solved anywhere in the module.  Under the apolar pairing,
multiplication by the trace is adjoint to omega, so a trace multiple pairs to
zero with any trace-free polynomial: apolar(p, harmonic_part(q)) contracts p
with q invariantly, whatever representative of p modulo the trace is given.
"""

from bisect import bisect_left
from fractions import Fraction
from functools import lru_cache
from itertools import combinations_with_replacement
from math import factorial, lcm

import numpy as np

from .poly import VAR_RANK, Poly, linear_form, mono_mul, monomial, split_xu

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


def _xu_monomials(dx, du):
    out = []
    for cx in combinations_with_replacement((1, 2, 3), dx):
        for cu in combinations_with_replacement((1, 2, 3), du):
            out.append(monomial([(f"x{i}", 1) for i in cx] + [(f"u{i}", 1) for i in cu]))
    return out


@lru_cache(maxsize=None)
def _projection_table(dx, du):
    """Each bidegree-(dx, du) monomial's coordinates as one integer matrix T.

    mono = sum_T gamma_T X_T + trace * rest.  Returns (tableaux, smaller
    monomials, {monomial: row}, T): row i of T holds the i-th monomial's gamma
    on the tableaux, then its rest on the smaller monomials of bidegree
    (dx - 1, du - 1).  T is the normal form modulo the trace, monic in x1 u1
    (Sturmfels, Algorithms in Invariant Theory, 1.2 and 3.1): up to sign the
    X_T are the monomials prime to x1 u1, and any other is x1 u1 m = trace m
    - x2 u2 m - x3 u3 m.  No system is solved; every entry is an integer.
    """
    tabs = enumerate_tableaux(du, dx)
    monos = _xu_monomials(dx, du)
    smaller = _xu_monomials(dx - 1, du - 1) if dx and du else []
    row_of = {mo: i for i, mo in enumerate(monos)}
    own = {mo: (j, sign) for j, (mo, sign) in enumerate(map(tableau_monomial, tabs))}
    T = np.zeros((len(monos), len(tabs) + len(smaller)), np.int64)
    # reversed, the powers of x1 ascend: a row reads only rows already filled
    for mo in reversed(monos):
        row = T[row_of[mo]]
        if mo in own:
            row[own[mo][0]] = own[mo][1]
        else:
            m = monomial(mo + (("x1", -1), ("u1", -1)))
            row[len(tabs) + smaller.index(m)] = 1
            for i in (2, 3):
                row -= T[row_of[mono_mul(m, ((f"x{i}", 1), (f"u{i}", 1)))]]
    return tabs, smaller, row_of, T


def _bidegree(p):
    """The degrees in x and in u of p's first term."""
    first = next(iter(p.terms))
    return sum(e for v, e in first if v[0] == "x"), sum(e for v, e in first if v[0] == "u")


def harmonic_project(p):
    """Split p = (harmonic on the X_T basis) + trace * remainder.

    p must be bihomogeneous in the x and u variables; other variables ride
    along as coefficients.  A polynomial in other copies of the point and
    line variables (y and v) is renamed to x and u by its caller first.
    Returns (coeffs, tableaux, remainder) where coeffs[i] is the Poly
    coefficient of X_{T_i}; every coefficient is a Fraction.

    Each term splits in one pass into its (x, u) monomial, a row of the
    integer table T, and its outer monomial in the other variables.  Scaled
    to an integer by the lcm of the denominators, it is added times each
    nonzero entry of its row into the (outer, column) sums: every outer
    monomial's coordinates on the tableaux and the remainder.  They are
    int64 while sum |c| * max |T| < 2^63, which bounds every partial sum,
    and exact Python ints in object arrays past that.
    """
    if not p:
        return [], (), Poly()
    dx, du = _bidegree(p)
    tabs, smaller, row_of, T = _projection_table(dx, du)
    outer_of = {}
    rows, outer_ids = [], []
    for inner, outer in split_xu(p.terms):
        row = row_of.get(inner)
        if row is None:
            raise ValueError("input not bihomogeneous")
        rows.append(row)
        outer_ids.append(outer_of.setdefault(outer, len(outer_of)))
    den = lcm(*(c.denominator for c in p.terms.values()))
    nums = [c.numerator * (den // c.denominator) for c in p.terms.values()]
    dtype = np.int64 if sum(map(abs, nums)) * int(np.abs(T).max()) < _INT64_BOUND else object
    # each row's nonzero columns first, cut to the most any row has (zeros pad)
    nz_cols = np.argsort(T == 0, axis=1, kind="stable")[:, :(T != 0).sum(axis=1).max()]
    nz_vals = np.take_along_axis(T, nz_cols, axis=1).astype(dtype)
    acc = np.zeros((len(outer_of), T.shape[1]), dtype)
    np.add.at(acc, (np.array(outer_ids)[:, None], nz_cols[rows]),
              np.array(nums, dtype)[:, None] * nz_vals[rows])

    outers = list(outer_of)
    cols = [[] for _ in range(acc.shape[1])]
    o, j = acc.nonzero()
    for oi, ji, v in zip(o.tolist(), j.tolist(), acc[o, j].tolist()):
        cols[ji].append((outers[oi], Fraction(v, den)))
    ntabs = len(tabs)
    # an outer monomial and a smaller one share no variable, so their product
    # is a merge in VAR_ORDER: the outer a's, the x's, the outer y's, the u's,
    # then the rest of the outer monomial
    x_rank, u_rank = VAR_RANK["x1"], VAR_RANK["u1"]
    remainder = []
    for sm, col in zip(smaller, cols[ntabs:]):
        nx = sum(v[0] == "x" for v, _ in sm)
        sx, su = sm[:nx], sm[nx:]
        for mo, c in col:
            ranks = [VAR_RANK[v] for v, _ in mo]
            a, y = bisect_left(ranks, x_rank), bisect_left(ranks, u_rank)
            remainder.append((mo[:a] + sx + mo[a:y] + su + mo[y:], c))
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


def harmonic_part(p):
    """The trace-free part h of p = h + trace * g, with omega(h) = 0.

    p must be bihomogeneous in the x and u variables; other variables ride
    along as coefficients.  h is linear in p: a trace multiple has harmonic
    part zero, and the harmonic part of X_T is its trace-free
    representative.  In closed form, as omega, multiplication by the
    trace and the degree form an sl2 triple (omega(trace g) = trace omega(g)
    + (e + 3) g on g of total degree e in x and u), for p of bidegree (dx, du):

        h = sum_k (-1)^k / (k! prod_{j=1..k} (dx + du + 2 - j)) trace^k omega^k(p),

    over 0 <= k <= min(dx, du).  With dx or du zero, h is p itself.
    """
    if not p:
        return p
    dx, du = _bidegree(p)
    term, rest, power, c = p, Poly(), Poly.const(1), Fraction(1)
    for k in range(1, min(dx, du) + 1):
        term = omega(term)
        power *= trace_poly()
        c /= -k * (dx + du + 2 - k)
        rest += c * power * term
    h = p + rest
    if omega(h):
        raise RuntimeError("harmonic part still has trace part")
    return h


def apolar(p, q):
    """The apolar pairing over x and u: p with its point and line variables
    swapped, applied to q as derivations.

    Other variables ride along: each (x, u) monomial of p meets the same
    monomial of q with x and u swapped, and the product of their coefficient
    Polys, times the product of the factorials of its exponents, streams
    into the result, a Poly in the other variables.  Multiplication by the
    trace is adjoint to omega under this pairing (Sturmfels, Algorithms in
    Invariant Theory, 1.2 and 3.1), so a trace multiple pairs to zero with
    any harmonic q.
    """
    # q's terms by the monomial of p they meet, each scaled by its factorials
    partners = {}
    for (inner, outer), c in zip(split_xu(q.terms), q.terms.values()):
        for _, e in inner:
            c *= factorial(e)
        swapped = monomial([(("u" if v[0] == "x" else "x") + v[1:], e) for v, e in inner])
        partners.setdefault(swapped, []).append((outer, c))
    return Poly((mono_mul(outer, o2), c * c2)
                for (inner, outer), c in zip(split_xu(p.terms), p.terms.values())
                for o2, c2 in partners.get(inner, ()))
