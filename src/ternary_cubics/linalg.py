"""Exact linear algebra over Q and over prime fields.

Everything downstream reduces to kernels of integer matrices.  The default
route is modular: reduce mod a large prime, row-reduce with numpy int64
arithmetic, and confirm the nullity with a second prime.  Exact rational
elimination (via fractions.Fraction) is kept for small systems and as an
independent cross-check.

Every modular entry point validates its prime with check_prime: a prime in
the range where the int64 arithmetic is exact, or a ValueError.

Pivoting is deterministic (first nonzero entry scanning columns left to
right), so reduced bases are reproducible across runs.
"""

from fractions import Fraction
from functools import lru_cache

import numpy as np

DEFAULT_PRIMES = (1000003, 65537)

# Field arithmetic runs on int64 residues in [0, p).  Elimination never holds
# more than one product of two residues, but a dot product of residue vectors
# sums many: the longest is GradedPiece.vanishes_at, one product per monomial
# of a weight block, up to 331 of them at degree 8.  Below PRIME_LIMIT = 2^27
# each product is under 2^54, so DOT_TERMS = 510 products plus a carried
# residue stay under 2^63: the degree-8 blocks fit in one dot product, and
# longer ones are reduced mod p every DOT_TERMS terms.  Below PRIME_MIN, a
# block is too likely to drop rank by accident (an unlucky prime).
PRIME_MIN = 2 ** 16
PRIME_LIMIT = 2 ** 27
DOT_TERMS = (2 ** 63 - 1) // PRIME_LIMIT ** 2 - 1

# Miller-Rabin with these bases is exact below 3.3e24, far past PRIME_LIMIT
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


class UnluckyPrimeError(Exception):
    """Raised when independent primes disagree on a nullity."""


@lru_cache(maxsize=64, typed=True)
def check_prime(p):
    """Return p if it is a prime with PRIME_MIN < p < PRIME_LIMIT, else raise ValueError."""
    if not isinstance(p, (int, np.integer)):
        raise ValueError(f"prime must be an integer, got {p!r}")
    p = int(p)
    if not PRIME_MIN < p < PRIME_LIMIT:
        raise ValueError(f"prime {p} is outside the supported range 2^16 < p < 2^27")
    d, s = p - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _WITNESSES:
        x = pow(a, d, p)
        if x in (1, p - 1):
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            raise ValueError(f"{p} is not prime")
    return p


def _rref_mod(A, p):
    """In-place reduced row echelon form mod p.  Returns pivot column list."""
    A %= p
    rows, cols = A.shape
    pivots = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        hits = np.nonzero(A[r:, c])[0]
        if hits.size == 0:
            continue
        i = r + int(hits[0])
        if i != r:
            A[[r, i]] = A[[i, r]]
        A[r] = (A[r] * pow(int(A[r, c]), p - 2, p)) % p
        nz = np.nonzero(A[:, c])[0]
        nz = nz[nz != r]
        if nz.size:
            A[nz] = (A[nz] - np.outer(A[nz, c], A[r])) % p
        pivots.append(c)
        r += 1
    return pivots


def rank_mod(A, p):
    p = check_prime(p)
    A = np.asarray(A, dtype=np.int64)
    if A.size == 0:
        return 0
    B = A % p
    return len(_rref_mod(B, p))


def nullspace_mod(A, p):
    """Kernel basis mod p, echelonized; shape (cols, nullity).

    Free columns are processed in increasing order; each basis vector has a 1
    in its free coordinate.
    """
    p = check_prime(p)
    A = np.asarray(A, dtype=np.int64)
    rows, cols = A.shape if A.ndim == 2 else (0, 0)
    if rows == 0:
        return np.eye(cols, dtype=np.int64)
    B = A % p
    pivots = _rref_mod(B, p)
    pivot_set = set(pivots)
    free = [c for c in range(cols) if c not in pivot_set]
    basis = np.zeros((cols, len(free)), dtype=np.int64)
    for k, c in enumerate(free):
        basis[c, k] = 1
        for r, pc in enumerate(pivots):
            basis[pc, k] = (-B[r, c]) % p
    return basis


def nullity_mod(A, p):
    p = check_prime(p)
    A = np.asarray(A, dtype=np.int64)
    if A.size == 0:
        return A.shape[1] if A.ndim == 2 else 0
    return A.shape[1] - rank_mod(A, p)


def in_rowspan_mod(A, v, p):
    """Whether v lies in the row span of A, mod p."""
    A = np.asarray(A, dtype=np.int64)
    v = np.asarray(v, dtype=np.int64)
    r0 = rank_mod(A, p)
    r1 = rank_mod(np.vstack([A, v[None, :]]), p)
    return r0 == r1


def nullspace_frac(rows):
    """Exact kernel basis over Q for a list-of-lists of Fractions/ints."""
    A = [[Fraction(x) for x in row] for row in rows]
    m = len(A)
    n = len(A[0]) if m else 0
    pivots = []
    r = 0
    for c in range(n):
        if r == m:
            break
        pr = next((i for i in range(r, m) if A[i][c] != 0), None)
        if pr is None:
            continue
        A[r], A[pr] = A[pr], A[r]
        inv = 1 / A[r][c]
        A[r] = [x * inv for x in A[r]]
        for i in range(m):
            if i != r and A[i][c] != 0:
                f = A[i][c]
                A[i] = [x - f * y for x, y in zip(A[i], A[r])]
        pivots.append(c)
        r += 1
    pivot_set = set(pivots)
    free = [c for c in range(n) if c not in pivot_set]
    basis = []
    for c in free:
        v = [Fraction(0)] * n
        v[c] = Fraction(1)
        for i, pc in enumerate(pivots):
            v[pc] = -A[i][c]
        basis.append(v)
    return basis


def solve_frac(M, rhs):
    """Solve the square exact system M x = rhs over Q; raises if singular."""
    n = len(M)
    A = [[Fraction(x) for x in row] + [Fraction(rhs[i])] for i, row in enumerate(M)]
    for col in range(n):
        pr = next((i for i in range(col, n) if A[i][col] != 0), None)
        if pr is None:
            raise ValueError("singular system")
        A[col], A[pr] = A[pr], A[col]
        inv = 1 / A[col][col]
        A[col] = [x * inv for x in A[col]]
        for i in range(n):
            if i != col and A[i][col] != 0:
                f = A[i][col]
                A[i] = [x - f * y for x, y in zip(A[i], A[col])]
    return [A[i][n] for i in range(n)]


def multi_prime_nullity(build, primes=DEFAULT_PRIMES):
    """Common nullity of build(p) across several primes.

    `build` maps a prime to an integer matrix (anything np.asarray accepts).
    All primes must pass check_prime and agree; a disagreement raises
    UnluckyPrimeError naming the outlier(s).
    """
    primes = [check_prime(p) for p in primes]
    if len(primes) < 2:
        raise ValueError("need at least 2 primes")
    nullities = {p: nullity_mod(np.asarray(build(p), dtype=np.int64), p) for p in primes}
    values = set(nullities.values())
    if len(values) == 1:
        return values.pop()
    counts = {v: sum(1 for x in nullities.values() if x == v) for v in values}
    majority = max(counts, key=counts.get)
    outliers = [p for p, v in nullities.items() if v != majority]
    raise UnluckyPrimeError(
        f"nullity disagreement {nullities}; suspected unlucky prime(s): {outliers}"
    )
