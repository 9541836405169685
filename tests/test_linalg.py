import numpy as np
import pytest
from fractions import Fraction
from hypothesis import assume, given, settings, strategies as st

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


@st.composite
def square_systems(draw, max_size=5, bound=9):
    n = draw(st.integers(1, max_size))
    entry = st.integers(-bound, bound)
    M = [draw(st.lists(entry, min_size=n, max_size=n)) for _ in range(n)]
    x = draw(st.lists(st.fractions(-20, 20, max_denominator=7), min_size=n, max_size=n))
    return M, x


@settings(max_examples=100, deadline=None)
@given(square_systems())
def test_rref_frac_augmented_solve_inverts_a_product(case):
    # [M | rhs] reduced on M's columns leaves the solution in the last column
    M, x = case
    assume(not linalg.nullspace_frac(M))
    n = len(M)
    A = [[Fraction(a) for a in row] + [sum(a * b for a, b in zip(row, x))] for row in M]
    assert linalg._rref_frac(A, n) == list(range(n))
    assert [row[n] for row in A] == x


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
    for fn in (linalg.rank_mod, linalg.nullspace_mod, linalg.nullity_mod):
        with pytest.raises(ValueError):
            fn(A, 1000000)
    with pytest.raises(ValueError):
        linalg.in_rowspan_mod(A, np.array([1, 0]), 4294967311)
