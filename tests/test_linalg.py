import ast
from contextlib import nullcontext
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from fractions import Fraction
from hypothesis import given, settings, strategies as st

from ternary_cubics import linalg


def test_rank_and_nullity():
    A = np.array([[1, 2, 3], [2, 4, 6], [0, 1, 1]])
    p = 1000003
    assert linalg.rank_mod(A, p) == 2
    assert linalg.nullity_mod(A, p) == 1


def test_nullspace_vectors_annihilate():
    rng = np.random.default_rng(0)
    p = 65537
    A = rng.integers(0, p, size=(6, 10))
    N = linalg.nullspace_mod(A, p)
    assert N.shape == (10, 10 - linalg.rank_mod(A, p))
    assert not np.any((A @ N) % p)


def test_nullspace_deterministic():
    A = np.array([[1, 1, 0], [0, 0, 0]])
    p = 1000003
    N1 = linalg.nullspace_mod(A, p)
    N2 = linalg.nullspace_mod(A.copy(), p)
    assert np.array_equal(N1, N2)


def test_in_rowspan():
    p = 1000003
    A = np.array([[1, 0, 1], [0, 1, 1]])
    assert linalg.in_rowspan_mod(A, np.array([1, 1, 2]), p)
    assert not linalg.in_rowspan_mod(A, np.array([0, 0, 1]), p)


def test_nullspace_frac():
    rows = [[1, 2, 3], [4, 5, 6]]
    basis = linalg.nullspace_frac(rows)
    assert len(basis) == 1
    v = basis[0]
    for row in rows:
        assert sum(Fraction(a) * x for a, x in zip(row, v)) == 0


# the greatest prime below PRIME_LIMIT
BIG_PRIME = 134217689


@st.composite
def small_matrices(draw, max_size=6, bound=9):
    m = draw(st.integers(1, max_size))
    n = draw(st.integers(1, max_size))
    entry = st.integers(-bound, bound)
    return [draw(st.lists(entry, min_size=n, max_size=n)) for _ in range(m)]


@settings(max_examples=200, deadline=None)
@given(small_matrices())
def test_modular_nullity_matches_rational(rows):
    # Hadamard: every minor is at most the product of its row norms, so a
    # prime above that product cannot divide a nonzero minor
    bound_sq = 1
    for row in rows:
        bound_sq *= max(1, sum(x * x for x in row))
    assert bound_sq < BIG_PRIME ** 2
    A = np.array(rows, dtype=np.int64)
    cols = A.shape[1]
    nullity = linalg.nullity_mod(A, BIG_PRIME)
    assert nullity == len(linalg.nullspace_frac(rows))
    assert linalg.rank_mod(A, BIG_PRIME) == cols - nullity
    assert linalg.nullspace_mod(A, BIG_PRIME).shape == (cols, nullity)


@settings(max_examples=200, deadline=None)
@given(small_matrices())
def test_modular_nullspace_is_the_rational_nullspace_mod_p(rows):
    # under the Hadamard bound no nonzero minor vanishes mod p, so both
    # fields pick the same pivots and the reduced kernel bases agree entry
    # by entry
    p = BIG_PRIME
    bound_sq = 1
    for row in rows:
        bound_sq *= max(1, sum(x * x for x in row))
    assert bound_sq < p ** 2
    A = np.array(rows, dtype=np.int64)
    expected = [[x.numerator * pow(x.denominator, -1, p) % p for x in v]
                for v in linalg.nullspace_frac(rows)]
    N = linalg.nullspace_mod(A, p)
    assert N.T.tolist() == expected
    assert linalg.rank_mod(A, p) == len(linalg._rref_mod(A % p, p, reduced=True))


def test_elimination_past_the_int64_headroom():
    # 530 pivot steps at the greatest allowed prime run past the headroom,
    # so the trailing block must be reduced mid-run.  A = L U with
    # L = I - (strictly lower ones) and U = I - (strictly upper ones) mod p
    # is the worst case: every multiplier and every pivot-row entry is
    # p - 1, so each step lowers each trailing entry by (p - 1)^2.  A random
    # matrix stays far from the bound.  The kernel of [A | A X] is [-X; I].
    p = BIG_PRIME
    n = 530
    assert linalg._headroom(p) < n
    i = np.arange(n)
    A = (np.minimum.outer(i, i) - 1 + 2 * np.eye(n, dtype=np.int64)) % p
    X = np.random.default_rng(7).integers(0, p, size=(n, 3))
    AX = (A.astype(object) @ X.astype(object) % p).astype(np.int64)
    B = np.hstack([A, AX])
    assert np.array_equal(linalg.nullspace_mod(B, p),
                          np.vstack([-X % p, np.eye(3, dtype=np.int64)]))
    assert linalg.rank_mod(B, p) == n
    assert linalg.nullity_mod(B, p) == 3


@pytest.mark.parametrize("p", [65537, BIG_PRIME])
def test_headroom_keeps_entries_inside_int64(p):
    # the least and the greatest allowed prime; h is the largest safe count
    h = linalg._headroom(p)
    assert p + h * (p - 1) ** 2 < 2 ** 63 <= p + (h + 1) * (p - 1) ** 2


def _reference_rref_mod(A, p, *, reduced):
    """The Gauss-Jordan step that _rref_mod replaced: every step normalizes
    the pivot row and clears the pivot column below it (and, with `reduced`,
    above it).  Kept verbatim but for reading _headroom from linalg, so that
    a patched headroom reaches both routines."""
    rows, cols = A.shape
    headroom = linalg._headroom(p)
    pivots = []
    r = steps = 0
    for c in range(cols):
        if r == rows:
            break
        lo = 0 if reduced else r
        A[lo:, c] %= p
        hits = A[r:, c].nonzero()[0]
        if hits.size == 0:
            continue
        i = r + int(hits[0])
        if i != r:
            # columns left of c are zero in both rows
            A[[r, i], c:] = A[[i, r], c:]
        A[r, c:] = A[r, c:] % p * pow(int(A[r, c]), p - 2, p) % p
        f = A[lo:, c].copy()
        f[r - lo] = 0
        if f.any():
            A[lo:, c:] -= f[:, None] * A[r, c:]
            steps += 1
            if steps == headroom:
                A[lo:, c + 1:] %= p
                steps = 0
        pivots.append(c)
        r += 1
    if reduced:
        A %= p
    return pivots


@st.composite
def echelon_cases(draw):
    """(residues mod p, p): dense, low-rank, sparse, or with leading zeros
    that force row swaps; tall (3:1), wide, or with no rows or no columns."""
    p = draw(st.sampled_from([65537, 1000003, BIG_PRIME]))
    shape = draw(st.sampled_from(["tall", "wide", "empty"]))
    if shape == "tall":
        cols = draw(st.integers(1, 13))
        rows = 3 * cols
    elif shape == "wide":
        rows = draw(st.integers(1, 40))
        cols = draw(st.integers(rows, 40))
    else:
        rows, cols = draw(st.permutations([0, draw(st.integers(0, 40))]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    kind = draw(st.sampled_from(["dense", "low rank", "sparse", "leading zeros"]))
    A = rng.integers(0, p, size=(rows, cols))
    if kind == "low rank":
        k = int(rng.integers(0, min(rows, cols) + 1))
        L = rng.integers(0, p, size=(rows, k)).astype(object)
        U = rng.integers(0, p, size=(k, cols)).astype(object)
        A = (L @ U % p).astype(np.int64)
    elif kind == "sparse":
        A[rng.random((rows, cols)) < rng.uniform(0.7, 1.0)] = 0
    elif kind == "leading zeros":
        A[np.arange(cols) < rng.integers(0, cols + 1, size=(rows, 1))] = 0
    return A, p


@pytest.mark.parametrize("headroom", [None, 1, 2])
@settings(max_examples=150, deadline=None)
@given(echelon_cases())
def test_rref_mod_matches_the_gauss_jordan_reference(headroom, case):
    # a headroom of 1 or 2 steps reduces the trailing block mid-run even on
    # these small matrices
    A, p = case
    patch = (mock.patch.object(linalg, "_headroom", lambda p: headroom) if headroom
             else nullcontext())
    with patch:
        for reduced in (False, True):
            B, R = A.copy(), A.copy()
            pivots = linalg._rref_mod(B, p, reduced=reduced)
            assert pivots == _reference_rref_mod(R, p, reduced=reduced)
            if reduced:
                assert np.array_equal(B, R)


@settings(max_examples=150, deadline=None)
@given(echelon_cases())
def test_rowbasis_mod_reads_a_kernel_back_byte_for_byte(case):
    # nullspace_mod's kernel rows are already in rowbasis_mod's form, and a
    # row basis has rank_mod rows spanning A's rows
    A, p = case
    before = A.copy()
    N = linalg.nullspace_mod(A, p).T.copy()
    R = linalg.rowbasis_mod(N, p)
    assert R.dtype == N.dtype and R.shape == N.shape and R.tobytes() == N.tobytes()
    B = linalg.rowbasis_mod(A, p)
    assert B.shape == (linalg.rank_mod(A, p), A.shape[1])
    assert linalg.rank_mod(np.vstack([A, B]), p) == len(B)
    assert np.array_equal(A, before)


def _benchmark_primes():
    """KERNEL_PRIMES of perfbench/workloads.py, read without importing it."""
    import ast
    from pathlib import Path

    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.Assign) and node.targets[0].id == "KERNEL_PRIMES":
            return ast.literal_eval(node.value)
    raise LookupError("KERNEL_PRIMES not found")


def test_check_prime_accepts_the_primes_in_use():
    for p in (*linalg.DEFAULT_PRIMES, *_benchmark_primes(), 999983, 786433):
        assert linalg.check_prime(p) == p
    assert linalg.check_prime(np.int64(1000003)) == 1000003


@pytest.mark.parametrize("n", [
    1000000, 1000001, 2 ** 20, 65537 * 3, 1000003 * 3,
    # Carmichael numbers: Fermat liars for every base prime to them
    75361, 101101, 126217, 172081, 188461, 252601, 294409, 314821, 334153,
    340561, 399001, 410041, 488881, 512461,
    # strong pseudoprimes to bases 2, 3 and to bases 2, 3, 5
    1373653, 25326001,
])
def test_check_prime_rejects_composites(n):
    with pytest.raises(ValueError, match="not prime"):
        linalg.check_prime(n)


def test_check_prime_range_ends():
    assert linalg.check_prime(65537) == 65537            # least prime > 2^16
    assert linalg.check_prime(134217689) == 134217689    # greatest prime < 2^27
    for p in (65521, 65536, 134217757, 2 ** 27, 4294967311, 2 ** 61 - 1,
              18446744073709551557, 2, 0, -1000003):
        with pytest.raises(ValueError, match="outside"):
            linalg.check_prime(p)
    with pytest.raises(ValueError):
        linalg.check_prime(1000003.0)


def test_check_primes_keeps_the_distinct_primes_in_order():
    assert linalg.check_primes([65537, np.int64(1000003), 65537]) == (65537, 1000003)
    assert all(type(p) is int for p in linalg.check_primes([np.int64(1000003)]))
    with pytest.raises(ValueError, match="at least one prime"):
        linalg.check_primes(())
    with pytest.raises(ValueError, match="1000000 is not prime"):
        linalg.check_primes((1000003, 1000000))


def test_modular_entry_points_check_the_prime():
    A = np.eye(2, dtype=np.int64)
    for fn in (linalg.rank_mod, linalg.nullspace_mod, linalg.nullity_mod, linalg.rowbasis_mod):
        with pytest.raises(ValueError):
            fn(A, 1000000)
    with pytest.raises(ValueError):
        linalg.in_rowspan_mod(A, np.array([1, 0]), 4294967311)


def test_rref_mod_has_three_callers():
    # every forward elimination goes through rank_mod, so a hook on rank_mod,
    # nullspace_mod and rowbasis_mod sees all modular elimination
    callers = set()
    for path in sorted(Path(linalg.__file__).parent.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            for node in ast.walk(top):
                if isinstance(node, ast.Call) and "_rref_mod" in (
                        getattr(node.func, "id", None), getattr(node.func, "attr", None)):
                    callers.add((path.stem, getattr(top, "name", "<module>")))
    assert callers == {("linalg", "rank_mod"), ("linalg", "nullspace_mod"),
                       ("linalg", "rowbasis_mod")}


def test_empty_input_reads_as_zero_by_zero():
    p = 1000003
    assert linalg.rank_mod([], p) == 0
    assert linalg.nullity_mod([], p) == 0
    assert linalg.nullity_mod(np.zeros((0, 4), dtype=np.int64), p) == 4
    assert linalg.rowbasis_mod([], p).shape == (0, 0)
    assert linalg.rowbasis_mod(np.zeros((0, 4), dtype=np.int64), p).shape == (0, 4)
