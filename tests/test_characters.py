"""Character calculus against independent oracles.

Oracles: Gelfand--Tsetlin pattern counts for dimensions, a direct
Littlewood--Richardson tableau count for tensor products, and the hook-content
formula for plethysm dimensions.
"""

import pytest
from hypothesis import given, settings, strategies as st

from ternary_cubics import characters as ch


def gt_dimension(a, b):
    """Number of Gelfand-Tsetlin patterns with top row (a, b, 0)."""
    count = 0
    for x in range(b, a + 1):
        for y in range(0, b + 1):
            count += x - y + 1     # z ranges over [y, x]
    return count


def lr_coefficient(lam, mu, nu):
    """Littlewood-Richardson coefficient c^nu_{lam, mu} for 3-row partitions.

    Counts skew tableaux of shape nu/lam with content mu whose reverse
    row-reading word is a lattice word.
    """
    lam = tuple(lam) + (0,) * (3 - len(lam))
    nu = tuple(nu) + (0,) * (3 - len(nu))
    if any(nu[i] < lam[i] for i in range(3)):
        return 0
    # cells in reverse reading order (row by row, right to left), so the
    # lattice condition can be enforced on the placed prefix
    cells = [(i, j) for i in range(3) for j in range(nu[i] - 1, lam[i] - 1, -1)]
    if len(cells) != sum(mu):
        return 0
    mu = tuple(mu) + (0,) * (3 - len(mu))
    count = 0

    def fill(k, grid, used):
        nonlocal count
        if k == len(cells):
            count += 1
            return
        i, j = cells[k]
        for v in range(1, 4):
            if used[v - 1] >= mu[v - 1]:
                continue
            right = grid.get((i, j + 1))     # placed earlier in this row
            up = grid.get((i - 1, j))        # placed in the previous row
            if right is not None and v > right:
                continue
            if up is not None and v <= up:
                continue
            # lattice: after placing v, #v must not exceed #(v-1)
            if v > 1 and used[v - 1] + 1 > used[v - 2]:
                continue
            grid[(i, j)] = v
            used[v - 1] += 1
            fill(k + 1, grid, used)
            used[v - 1] -= 1
            del grid[(i, j)]

    fill(0, {}, [0, 0, 0])
    return count


def partition_of(a, b):
    return (a, b, 0)


def test_dimension_against_gt_patterns():
    for a in range(7):
        for b in range(a + 1):
            assert ch.dim_irrep(a, b) == gt_dimension(a, b)


def test_known_dimensions():
    assert ch.dim_irrep(0, 0) == 1
    assert ch.dim_irrep(1, 0) == 3
    assert ch.dim_irrep(1, 1) == 3
    assert ch.dim_irrep(2, 1) == 8
    assert ch.dim_irrep(3, 0) == 10
    assert ch.dim_irrep(4, 2) == 27
    assert ch.dim_irrep(6, 3) == 64


def test_character_dimension_and_symmetry():
    for ab in [(2, 0), (2, 1), (4, 2), (5, 1)]:
        c = ch.weyl_character(*ab)
        assert c.dimension() == ch.dim_irrep(*ab)
        assert c.is_weyl_symmetric()


def test_duality():
    assert ch.dual_weight(4, 2) == (4, 2)
    assert ch.dual_weight(5, 1) == (5, 4)
    for ab in [(3, 0), (4, 1), (5, 2)]:
        c = ch.weyl_character(*ab)
        assert ch.decompose(c.dual()) == [(ch.dual_weight(*ab), 1)]


@pytest.mark.parametrize("lam,mu", [
    ((1, 0), (1, 0)), ((2, 1), (2, 1)), ((3, 0), (3, 0)), ((2, 0), (2, 1)),
    ((3, 1), (2, 0)),
])
def test_tensor_against_lr_rule(lam, mu):
    prod = ch.weyl_character(*lam) * ch.weyl_character(*mu)
    dec = dict(ch.decompose(prod))
    # every SL3 irrep in the product appears as a GL3 partition nu with
    # |nu| = |lam| + |mu| + 3k for the k columns of height 3 removed
    total = sum(lam) + sum(mu)
    seen = {}
    for h3 in range(0, total // 3 + 1):
        for a in range(total + 1):
            for b in range(a + 1):
                nu = (a + h3, b + h3, h3)
                if sum(nu) != total:
                    continue
                coeff = lr_coefficient(partition_of(*lam), partition_of(*mu), nu)
                if coeff:
                    seen[(a, b)] = seen.get((a, b), 0) + coeff
    assert dec == seen


def test_adjoint_tensor_square():
    c = ch.weyl_character(2, 1)
    dec = dict(ch.decompose(c * c))
    assert dec == {(4, 2): 1, (3, 3): 1, (3, 0): 1, (2, 1): 2, (0, 0): 1}


_characters = st.dictionaries(st.tuples(*[st.integers(0, 3)] * 3),
                              st.integers(-3, 3)).map(ch.Character)


@settings(max_examples=100, deadline=None)
@given(_characters, _characters)
def test_character_sum_matches_weightwise_add(c1, c2):
    # a Character operand is merged directly; a plain dict goes through add()
    plain = dict(c2)
    assert c1 + c2 == c1 + plain
    assert c1 - c2 == c1 - plain
    assert 0 not in (c1 + c2).values() and 0 not in (c1 - c2).values()
    assert not c2 - c2


def test_sym_powers_of_cubics():
    s3 = ch.weyl_character(3, 0)
    sym = ch.sym_powers(4, s3)
    assert sym[2].dimension() == 55
    assert dict(ch.decompose(sym[2])) == {(6, 0): 1, (4, 2): 1}
    assert dict(ch.decompose(sym[3])) == {(9, 0): 1, (7, 2): 1, (6, 3): 1,
                                          (3, 3): 1, (3, 0): 1}
    assert sym[4].dimension() == 715


def test_ext_powers():
    v = ch.weyl_character(1, 0)
    assert ch.decompose(ch.ext_power(2, v)) == [((1, 1), 1)]
    assert ch.decompose(ch.ext_power(3, v)) == [((0, 0), 1)]
    assert not ch.ext_power(4, v)
    s2 = ch.weyl_character(2, 0)
    assert ch.ext_power(6, s2).dimension() == 1


def hook_content_dimension(shape, N):
    """dim S_shape(C^N) by the hook-content formula."""
    from fractions import Fraction
    shape = tuple(shape)
    cols = [sum(1 for r in shape if r > j) for j in range(shape[0])]
    val = Fraction(1)
    for i, row in enumerate(shape):
        for j in range(row):
            hook = (row - j) + (cols[j] - i) - 1
            val *= Fraction(N + j - i, hook)
    assert val.denominator == 1
    return int(val)


def test_hook_schur_dimension():
    s3 = ch.weyl_character(3, 0)
    assert ch.hook_schur(4, 3, s3).dimension() == hook_content_dimension(
        (4, 1, 1, 1), 10)
    assert hook_content_dimension((4, 1, 1, 1), 10) == 34320


def test_hook_schur_column_case():
    s3 = ch.weyl_character(3, 0)
    for k in range(3):
        assert ch.hook_schur(1, k, s3) == ch.ext_power(k + 1, s3)


def test_sym8_multiplicities():
    s3 = ch.weyl_character(3, 0)
    sym8 = ch.sym_powers(8, s3)[8]
    assert sym8.dimension() == 24310
    assert ch.multiplicity(sym8, (5, 4)) == 1
    assert ch.multiplicity(sym8, (5, 1)) == 1


def test_decompose_rejects_non_symmetric():
    c = ch.Character()
    c.add((1, 0, 0), 1)
    with pytest.raises(ValueError):
        ch.decompose(c)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 4), st.integers(0, 4), st.integers(0, 3), st.integers(0, 3))
def test_tensor_dimension_multiplicative(a, b, c, d):
    b, d = min(a, b), min(c, d)
    x = ch.weyl_character(a, b)
    y = ch.weyl_character(c, d)
    assert (x * y).dimension() == x.dimension() * y.dimension()


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 5), st.integers(0, 5))
def test_decompose_reassembles(a, b):
    b = min(a, b)
    prod = ch.weyl_character(a, b) * ch.weyl_character(2, 1)
    dec = ch.decompose(prod)
    rebuilt = ch.from_modules(dec)
    assert rebuilt == prod
