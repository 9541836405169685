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
"""

from fractions import Fraction
from functools import lru_cache
from itertools import combinations_with_replacement
from math import factorial

from . import linalg
from .poly import Poly, mono_mul, monomial

COLUMN_SIGNS = {(2, 3): ("x1", 1), (1, 3): ("x2", -1), (1, 2): ("x3", 1)}


@lru_cache(maxsize=None)
def enumerate_tableaux(m, n):
    """All semistandard tableaux on shape (m+n, n), lexicographic on (row1, row2).

    A tableau is ((row1 entries), (row2 entries)).
    """
    if m < 0 or n < 0:
        raise ValueError("m, n >= 0")
    out = []
    for row1 in combinations_with_replacement((1, 2, 3), m + n):
        for row2 in combinations_with_replacement((1, 2, 3), n):
            if all(row1[i] < row2[i] for i in range(n)):
                out.append((row1, row2))
    out.sort()
    return tuple(out)


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


def tableau_poly(T, point="x", line="u"):
    """X_T as a Poly, optionally in the (y, v) copies of the variables."""
    mono, sign = tableau_monomial(T)
    if (point, line) != ("x", "u"):
        mono = monomial([
            (v.replace("x", point) if v.startswith("x") else v.replace("u", line), e)
            for v, e in mono
        ])
    return Poly({mono: sign})


def _xu_monomials(dx, du, point="x", line="u"):
    out = []
    for cx in combinations_with_replacement((1, 2, 3), dx):
        for cu in combinations_with_replacement((1, 2, 3), du):
            out.append(monomial([(f"{point}{i}", 1) for i in cx] +
                                [(f"{line}{i}", 1) for i in cu]))
    return out


@lru_cache(maxsize=None)
def _projection_table(dx, du, point="x", line="u"):
    """For each bidegree-(dx, du) monomial, its coordinates on the X_T basis.

    Solves mono = sum_T gamma_T X_T + trace * rest exactly over Q.  Returns
    (tableaux, {monomial: tuple of gamma}, {monomial: rest as Poly}).
    """
    tabs = enumerate_tableaux(du, dx)
    monos = _xu_monomials(dx, du, point, line)
    index = {mo: i for i, mo in enumerate(monos)}
    smaller = _xu_monomials(dx - 1, du - 1, point, line) if dx and du else []
    trace = trace_poly(point, line)

    # columns: X_T vectors, then trace * smaller-monomial vectors
    cols = []
    for T in tabs:
        p = tableau_poly(T, point, line)
        v = [Fraction(0)] * len(monos)
        for mo, c in p.terms.items():
            v[index[mo]] = Fraction(c)
        cols.append(v)
    for sm in smaller:
        p = trace * Poly({sm: 1})
        v = [Fraction(0)] * len(monos)
        for mo, c in p.terms.items():
            v[index[mo]] = Fraction(c)
        cols.append(v)

    ncols = len(cols)
    # Solve A * coords = e_mono for every monomial at once: row-reduce [A | I].
    A = [[cols[j][i] for j in range(ncols)] + [Fraction(i == k) for k in range(len(monos))]
         for i in range(len(monos))]
    piv = linalg._rref_frac(A, ncols)
    if len(piv) != ncols:
        raise RuntimeError("tableau + trace columns are not independent")
    # consistency: rows beyond rank must be zero on the identity part too
    for i in range(ncols, len(A)):
        if any(A[i][ncols + k] != 0 for k in range(len(monos))):
            raise RuntimeError("tableau + trace columns do not span the bidegree space")
    gamma = {}
    rest = {}
    ntabs = len(tabs)
    for kk, mo in enumerate(monos):
        coords = [Fraction(0)] * ncols
        for i, c in enumerate(piv):
            coords[c] = A[i][ncols + kk]
        gamma[mo] = tuple(coords[:ntabs])
        rp = Poly()
        for j, sm in enumerate(smaller):
            if coords[ntabs + j]:
                rp = rp + Poly({sm: coords[ntabs + j]})
        rest[mo] = rp
    return tabs, gamma, rest


def harmonic_project(p, point="x", line="u"):
    """Split p = (harmonic on the X_T basis) + trace * remainder.

    p must be bihomogeneous in (point, line) variables; other variables ride
    along as coefficients.  Returns (coeffs, tableaux, remainder) where
    coeffs[i] is the Poly coefficient of X_{T_i}.
    """
    if not p:
        return [], (), Poly()
    dx = du = None
    for mo in p.terms:
        ddx = sum(e for v, e in mo if v.startswith(point))
        ddu = sum(e for v, e in mo if v.startswith(line))
        if dx is None:
            dx, du = ddx, ddu
        elif (dx, du) != (ddx, ddu):
            raise ValueError("input not bihomogeneous")
    tabs, gamma, rest = _projection_table(dx, du, point, line)
    coeffs = [{} for _ in tabs]
    remainder = {}
    for mo, c in p.terms.items():
        inner = tuple((v, e) for v, e in mo if v.startswith(point) or v.startswith(line))
        outer = tuple((v, e) for v, e in mo if not (v.startswith(point) or v.startswith(line)))
        for acc, g in zip(coeffs, gamma[inner]):
            if g:
                acc[outer] = acc.get(outer, 0) + c * g
        for sm, r in rest[inner].terms.items():
            key = mono_mul(outer, sm)
            remainder[key] = remainder.get(key, 0) + c * r
    return [Poly(acc) for acc in coeffs], tabs, Poly(remainder)


def harmonic_dimension(dx, du):
    """Dimension of the harmonic subspace of bidegree (dx, du)."""
    return len(enumerate_tableaux(du, dx))


def trace_poly(point="x", line="u"):
    acc = Poly()
    for i in (1, 2, 3):
        acc = acc + Poly.var(f"{point}{i}") * Poly.var(f"{line}{i}")
    return acc


def omega(p, point="x", line="u"):
    """The trace contraction sum_i d/d(point_i) d/d(line_i)."""
    out = Poly()
    for mo, c in p.terms.items():
        d = dict(mo)
        for i in (1, 2, 3):
            xv, uv = f"{point}{i}", f"{line}{i}"
            ex, eu = d.get(xv, 0), d.get(uv, 0)
            if ex and eu:
                dd = dict(d)
                dd[xv] -= 1
                dd[uv] -= 1
                out = out + Poly({monomial(dd.items()): c * ex * eu})
    return out


@lru_cache(maxsize=None)
def harmonic_representatives(dx, du):
    """The trace-free representative of each X_T in bidegree (dx, du).

    h_T = X_T - trace * g with omega(h_T) = 0; the quotient-basis coefficient
    extraction of harmonic_project is blind to the choice of representative,
    but the invariant pairing below is not.
    """
    tabs = enumerate_tableaux(du, dx)
    monos = _xu_monomials(dx - 1, du - 1)
    idx = {m: i for i, m in enumerate(monos)}
    trace = trace_poly()
    rows = []
    for m in monos:
        img = omega(trace * Poly({m: 1}))
        row = [Fraction(0)] * len(monos)
        for mo, c in img.terms.items():
            row[idx[mo]] = Fraction(c)
        rows.append(row)
    # transpose: column j is the image of monos[j]
    M = [[rows[j][i] for j in range(len(monos))] for i in range(len(monos))]
    out = []
    for T in tabs:
        X = tableau_poly(T)
        w = omega(X)
        rhs = [Fraction(0)] * len(monos)
        for mo, c in w.terms.items():
            rhs[idx[mo]] = Fraction(c)
        g = linalg.solve_frac(M, rhs)
        gp = Poly()
        for val, m in zip(g, monos):
            if val:
                gp = gp + Poly({m: val})
        h = X - trace * gp
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
