"""Exact linear algebra over Q and over prime fields.

Everything downstream reduces to kernels of integer matrices.  The default
route is modular: reduce mod a large prime, row-reduce with numpy int64
arithmetic, and confirm the nullity with a second prime.  The primes are
compared by the callers: ideals._solve_blocks for every weight-blocked
elimination, and the cli's `ideal hilbert` (cmd_ideal) for Hilbert values.
Exact rational elimination (via fractions.Fraction, nullspace_frac) solves
nothing in the package: it is the tests' independent oracle for the
modular routines.

There is one echelon routine per field, each reducing in place and returning
the pivot columns: _rref_mod over F_p and _rref_frac over Q.  Only rank_mod
(forward elimination only), nullspace_mod and rowbasis_mod (the reduced form)
call _rref_mod, each after the shared prologue _residues.  The nullity test
and the row-span test (the tests' mod-p reference for ideals.isotypic_match)
count ranks through rank_mod.

_rref_mod delays its modular reductions.  A pivot step reduces the pivot
column and takes its first nonzero entry at or below the current row as the
pivot.  When no other row has a nonzero entry in that column, the step does
no update.  Otherwise forward elimination reduces the pivot row right of the
pivot, takes the multipliers as the entries below the pivot times the
pivot's inverse mod p, and subtracts multiplier times pivot row from the
rows below and the columns right of the pivot; the entries below the pivot
are never cleared, as nothing reads them again.  The reduced form normalizes
the pivot row and subtracts it from every other row, so the pivot column
becomes a unit vector.  The update itself is not reduced: each entry of the
trailing block falls by at most one product of two residues, (p - 1)^2.  An
entry reduced into [0, p) therefore stays inside int64 for _headroom(p)
unreduced steps, the largest h with p + h (p - 1)^2 < 2^63; the trailing
block is reduced again only after that many steps (512 at the greatest
allowed prime, millions at the default primes), and a reduced run ends with
one reduction of the whole matrix.

Every modular entry point validates its prime with check_prime: a prime in
the range where the int64 arithmetic is exact, or a ValueError.  A set of
primes, for the callers that compare primes, is validated by check_primes.

Pivoting is deterministic (first nonzero entry scanning columns left to
right), so reduced bases are reproducible across runs.
"""

from fractions import Fraction
from functools import lru_cache

import numpy as np

DEFAULT_PRIMES = (1000003, 65537)

# Field arithmetic runs on int64 residues in [0, p), reduced lazily: between
# reductions an entry accumulates up to _headroom(p) products of two
# residues.  Below PRIME_LIMIT = 2^27 a product is under 2^54, so the
# headroom is at least 512 steps.  Below PRIME_MIN, a block is too likely to
# drop rank by accident (an unlucky prime).
PRIME_MIN = 2 ** 16
PRIME_LIMIT = 2 ** 27

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


def check_primes(primes):
    """The distinct primes in their given order, each validated by check_prime.

    At least one is needed; a repeated prime would only repeat its work.
    """
    primes = tuple(dict.fromkeys(check_prime(p) for p in primes))
    if not primes:
        raise ValueError("at least one prime is needed")
    return primes


def _headroom(p):
    """Pivot steps an entry in [0, p) can take unreduced: the largest h with
    p + h (p - 1)^2 < 2^63."""
    return (2 ** 63 - 1 - p) // (p - 1) ** 2


def _rref_mod(A, p, *, reduced):
    """Row echelon form of residues mod p, in place.  Returns the pivot columns.

    With `reduced`, A ends in reduced row echelon form with entries in
    [0, p).  Without it, elimination runs forward only and the pivots are
    the whole result: A is left in an unspecified state.
    """
    rows, cols = A.shape
    headroom = _headroom(p)
    pivots = []
    r = steps = 0
    for c in range(cols):
        if r == rows:
            break
        lo = 0 if reduced else r
        col = A[lo:, c]
        col %= p
        # every row the update touches; the pivot is the first at or below r
        hits = col.nonzero()[0]
        k = int(hits.searchsorted(r)) if reduced else 0
        if k == hits.size:
            continue
        i = lo + int(hits[k])
        if i != r:
            # swap rows r and i, the two rows of r:i + 1:i - r; columns left
            # of c are zero in both
            A[r:i + 1:i - r, c:] = A[r:i + 1:i - r, c:][::-1]
        inv = pow(int(A[r, c]), -1, p)
        if reduced:
            A[r, c:] = A[r, c:] % p * inv % p
        if hits.size > 1:
            if reduced:
                f = col.copy()
                f[r] = 0
                A[:, c:] -= f[:, None] * A[r, c:]
            else:
                row = A[r, c + 1:]
                row %= p
                A[r + 1:, c + 1:] -= (A[r + 1:, c] * inv % p)[:, None] * row
            steps += 1
            if steps == headroom:
                A[lo:, c + 1:] %= p
                steps = 0
        pivots.append(c)
        r += 1
    if reduced:
        A %= p
    return pivots


def _residues(A, p):
    """Validate p and return (a fresh int64 copy of A reduced mod p, p).

    An input with no entries that is not a matrix is read as 0 x 0.
    """
    p = check_prime(p)
    B = np.array(A, dtype=np.int64)
    if B.ndim != 2 and B.size == 0:
        B = B.reshape(0, 0)
    B %= p
    return B, p


def rank_mod(A, p):
    """Rank of A mod p, by forward elimination only; A is left untouched."""
    B, p = _residues(A, p)
    return len(_rref_mod(B, p, reduced=False))


def nullspace_mod(A, p):
    """Kernel basis mod p, echelonized; shape (cols, nullity).

    Free columns are processed in increasing order; each basis vector has a 1
    in its free coordinate.
    """
    B, p = _residues(A, p)
    pivots = _rref_mod(B, p, reduced=True)
    is_free = np.ones(B.shape[1], dtype=bool)
    is_free[pivots] = False
    free = np.flatnonzero(is_free)
    basis = np.zeros((B.shape[1], len(free)), dtype=np.int64)
    basis[free, np.arange(len(free))] = 1
    basis[pivots] = -B[:len(pivots), free] % p
    return basis


def rowbasis_mod(A, p):
    """Row span basis mod p, shape (rank, cols), in nullspace_mod's form: each
    row ends in a 1 where every other row is 0, rows in order of that column.
    It is the reduced echelon form of A's columns reversed, read back reversed."""
    B, p = _residues(A, p)
    B = B[:, ::-1].copy()
    rank = len(_rref_mod(B, p, reduced=True))
    return B[:rank][::-1, ::-1].copy()


def nullity_mod(A, p):
    """Nullity of A mod p, by forward elimination only; A is left untouched."""
    B, p = _residues(A, p)
    return B.shape[1] - rank_mod(B, p)


def in_rowspan_mod(A, v, p):
    """Whether v lies in the row span of A, mod p."""
    B, p = _residues(np.vstack([A, np.asarray(v)[None, :]]), p)
    return rank_mod(B[:-1], p) == rank_mod(B, p)


def _rref_frac(A):
    """In-place reduced row echelon form of Fraction rows; returns pivot columns.

    A row update skips the zero entries of the pivot row.
    """
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
                A[i] = [x - f * y if y else x for x, y in zip(A[i], A[r])]
        pivots.append(c)
        r += 1
    return pivots


def nullspace_frac(rows):
    """Exact kernel basis over Q for a list-of-lists of Fractions/ints."""
    A = [[Fraction(x) for x in row] for row in rows]
    n = len(A[0]) if A else 0
    pivots = _rref_frac(A)
    pivot_set = set(pivots)
    basis = []
    for c in range(n):
        if c in pivot_set:
            continue
        v = [Fraction(0)] * n
        v[c] = Fraction(1)
        for i, pc in enumerate(pivots):
            v[pc] = -A[i][c]
        basis.append(v)
    return basis

