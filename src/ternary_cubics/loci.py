"""The six decomposability loci in P^9 and their parameterizations.

Each locus is the image of a polynomial family F = (product of forms); forcing
F = sum a_r x^r gives the substitution map a_r = phi_r(params).  One table,
_FAMILIES, gives each locus its families and their product:

    equiv   F = L^3                      params b
    neq     F = L1^2 L2                  params b, c
    y       F = L1 L2 (s L1 + t L2)      params b, c, s, t
    delta   F = L1 L2 L3                 params b, c, d
    tact    F = L (L M + K^2)            params b (L), m (M), k (K)
    empty   F = Q L                      params q (conic), b

The concurrent-lines locus X_Y is parameterized through L3 = s L1 + t L2,
which forces the concurrency determinant to vanish identically; the tangency
locus X_tact through the pencil form L M + K^2 of a conic tangent to L at
{K = L = 0}.  Both families dominate their loci, which is all the kernel
computations need.

Two products are symmetric, so permutations of their parameter families fix
every phi_r: S3 on the lines b, c, d of delta, and (L1, s) <-> (L2, t) of y;
ideals derives these groups and builds one image row per parameter orbit.

The tact invariant of a conic and a line (the tangency condition) is computed
from scratch: Res = Resultant(Q, L; x2), T' = Discriminant(Res, x1), and
T = T' / b2^2 exactly as polynomials.
"""

import random
from dataclasses import dataclass
from functools import lru_cache

from . import linalg
from .poly import A_EXPS, Poly, generic_quadric, linear_form, monomial

LOCI = ("equiv", "neq", "y", "delta", "tact", "empty")

LOCUS_DIM = {"equiv": 2, "neq": 4, "y": 5, "delta": 6, "tact": 6, "empty": 7}

# draws of sample() before it gives up on a zero point
MAX_REDRAWS = 50

# generator degrees of the defining ideals: the degrees j with b_{j,0} > 0 in
# the Betti tables (neq has 28 quartic generators beyond R_1 I_3)
GENERATOR_DEGREES = {
    "equiv": (2,), "neq": (3, 4), "y": (3,), "delta": (4,),
    "tact": (4, 5), "empty": (8,),
}


@dataclass
class LocusSpec:
    params: list
    phi: list          # ten Polys, phi[r] = image of a_r


def _coefficients_of_cubic(F):
    """Split a cubic form in x into its ten a-coefficients (graded-lex)."""
    by_x = F.collect({"x"})
    out = []
    for r, e in enumerate(A_EXPS):
        key = monomial([(f"x{i + 1}", e[i]) for i in range(3)])
        out.append(by_x.get(key, Poly()))
    return out


def _family(fam):
    """(parameter names, form) of one family: a linear form, the conic q or a scalar."""
    if fam in ("s", "t"):
        return [fam], Poly.var(fam)
    if fam == "q":
        return [f"q{i}" for i in range(1, 7)], generic_quadric()
    return [f"{fam}{i}" for i in range(1, 4)], linear_form(fam)


# locus -> (its families in parameter order, the product F of their forms)
_FAMILIES = {
    "equiv": (("b",), lambda b: b * b * b),
    "neq": (("b", "c"), lambda b, c: b * b * c),
    "y": (("b", "c", "s", "t"), lambda b, c, s, t: b * c * (s * b + t * c)),
    "delta": (("b", "c", "d"), lambda b, c, d: b * c * d),
    "tact": (("b", "m", "k"), lambda b, m, k: b * (b * m + k * k)),
    "empty": (("q", "b"), lambda q, b: q * b),
}


@lru_cache(maxsize=None)
def substitution_map(locus):
    """The LocusSpec with its ten substitution polynomials."""
    if locus not in LOCI:
        raise ValueError(f"unknown locus {locus!r}; have {LOCI}")
    fams, product = _FAMILIES[locus]
    names, forms = zip(*map(_family, fams))
    return LocusSpec([v for ns in names for v in ns], _coefficients_of_cubic(product(*forms)))


def _seed_key(seed):
    """Accept tuples and other structured seeds via a stable repr."""
    return seed if isinstance(seed, (int, str, bytes, type(None))) else repr(seed)


@lru_cache(maxsize=None)
def sample(locus, seed, p=None):
    """A cubic point on the locus: substitute random parameters into phi.

    The only source of locus points: Hilbert values evaluate monomials at
    these cubics, and the vanishing checks of verify-all evaluate
    concomitants at them.
    Redraws on the zero vector; raises after MAX_REDRAWS failures.  Memoized,
    so a point sequence (seed, 0), (seed, 1), ... is drawn and evaluated once
    for every degree; the seed must therefore be hashable (a list raises
    TypeError).  A call that raises caches nothing.
    """
    if p is not None:
        p = linalg.check_prime(p)
    spec = substitution_map(locus)
    rng = random.Random(_seed_key(seed))
    for _ in range(MAX_REDRAWS):
        vals = sample_params(locus, rng, p)
        point = tuple(phi.evaluate(vals, p) for phi in spec.phi)
        if any(point):
            return point
    raise RuntimeError(f"sampler exhausted after {MAX_REDRAWS} redraws")


def sample_params(locus, rng, p):
    """One draw of the locus parameters for sample: integers in [-20, 20]
    when p is None (exact mode), uniform residues mod p otherwise.

    A named function of its own because the benchmark tracer
    (perfbench/tracer.py) records each draw under this name.
    """
    params = substitution_map(locus).params
    if p is None:
        return {v: rng.randint(-20, 20) for v in params}
    return {v: rng.randrange(p) for v in params}


# ---------------------------------------------------------------------------
# Tact invariant
# ---------------------------------------------------------------------------

def _coeffs_in(pl, var, maxdeg):
    out = [[] for _ in range(maxdeg + 1)]
    for mo, c in pl.terms.items():
        e = dict(mo).get(var, 0)
        out[e].append((monomial(mo + ((var, -e),)), c))
    return [Poly(pairs) for pairs in out]


@lru_cache(maxsize=None)
def tact_polynomial():
    """The tact invariant T(q, b) as an exact Poly.

    Res(Q, L; x2) for Q quadratic and L linear in x2 is A2 B0^2 - A1 B0 B1
    + A0 B1^2; its x1-discriminant is divisible by b2^2, and the quotient is T.
    """
    # the generic conic and line in the chart x3 = 1
    Q = generic_quadric().substitute({"x3": 1})
    L = linear_form("b").substitute({"x3": 1})
    A = _coeffs_in(Q, "x2", 2)   # A[k]: coefficient of x2^k (Poly in x1, q)
    B = _coeffs_in(L, "x2", 1)
    res = A[2] * B[0] * B[0] - A[1] * B[0] * B[1] + A[0] * B[1] * B[1]
    C = _coeffs_in(res, "x1", 2)
    # sign convention: 4*C2*C0 - C1^2, so tangency from outside gives the
    # same signs as the classical 12-term expansion
    disc = 4 * C[2] * C[0] - C[1] * C[1]
    # exact division by b2^2
    out = []
    for mo, c in disc.terms.items():
        if dict(mo).get("b2", 0) < 2:
            raise ArithmeticError("discriminant not divisible by b2^2")
        out.append((monomial(mo + (("b2", -2),)), c))
    return Poly(out)


def tact_printed_formula():
    """The classical explicit 12-term expansion, for cross-checking."""
    q1, q2, q3, q4, q5, q6 = (Poly.var(f"q{i}") for i in range(1, 7))
    b1, b2, b3 = (Poly.var(f"b{i}") for i in range(1, 4))
    return (4 * q2 * q6 * b1 * b1 - 4 * q2 * q4 * b1 * b3 + 4 * q1 * q2 * b3 * b3
            - q5 * q5 * b1 * b1 - 4 * q3 * q6 * b1 * b2 + 2 * q4 * q5 * b1 * b2
            + 2 * q3 * q5 * b1 * b3 - q4 * q4 * b2 * b2 - 4 * q1 * q5 * b2 * b3
            + 2 * q3 * q4 * b2 * b3 - q3 * q3 * b3 * b3 + 4 * q1 * q6 * b2 * b2)


NAMED_CUBICS = {
    "fermat": (1, 0, 0, 0, 0, 0, 1, 0, 0, 1),      # x1^3 + x2^3 + x3^3
    "triangle": (0, 0, 0, 0, 1, 0, 0, 0, 0, 0),    # x1 x2 x3
    "cuspidal": (1, 0, 0, 0, 0, 0, 0, -1, 0, 0),   # x1^3 - x2^2 x3
}
