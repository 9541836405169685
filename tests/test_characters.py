"""Character calculus against independent oracles.

Oracles: Gelfand--Tsetlin pattern counts for dimensions, a direct
Littlewood--Richardson tableau count for tensor products, and the hook-content
formula for plethysm dimensions.
"""

import hashlib

import pytest
from hypothesis import example, given, settings, strategies as st

from ternary_cubics import characters as ch, cli, resolution


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
        assert ch.decompose(c) == [(ab, 1)]


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


def reference_product(c1, c2):
    """The tensor product as the plain dict convolution over weight pairs."""
    out = {}
    for (a0, a1, a2), m1 in c1.items():
        for (b0, b1, b2), m2 in c2.items():
            w = ch.normalize((a0 + b0, a1 + b1, a2 + b2))
            out[w] = out.get(w, 0) + m1 * m2
    return {w: m for w, m in out.items() if m}


def _assert_product(c1, c2):
    prod = c1 * c2
    assert dict(prod) == reference_product(c1, c2)
    assert all(type(m) is int and m for m in prod.values())
    assert all(type(t) is int for w in prod for t in w)
    assert all(min(w) == 0 for w in prod)


# (1,1,0) (x) (0,0,1) cancels exactly, and (1,0,0) + (0,1,1) = (1,1,1)
# collides with (0,0,0) + (0,0,0) modulo (1,1,1)
@example(ch.Character({(1, 1, 0): 1, (0, 0, 0): 1, (0, 1, 1): 1}),
         ch.Character({(0, 0, 1): 1, (1, 0, 0): -1, (0, 0, 0): 1}))
@settings(max_examples=200, deadline=None)
@given(_characters, _characters)
def test_product_matches_dict_convolution(c1, c2):
    _assert_product(c1, c2)


_wide_characters = st.dictionaries(st.tuples(*[st.integers(0, 9)] * 3),
                                   st.integers(-2 ** 40, 2 ** 40),
                                   max_size=12).map(ch.Character)


@settings(max_examples=100, deadline=None)
@given(_wide_characters, _wide_characters)
def test_product_stays_exact_past_int64(c1, c2):
    # multiplicities near 2^40: the pair products pass 2^63, so the product
    # accumulates Python ints
    _assert_product(c1, c2)


def test_product_at_the_int64_bound():
    # 4 m^2 = sum|m_a| * sum|m_b| is just below 2^63 for the first m (int64)
    # and just above it for the second (Python ints)
    for m in (1518500249, 1518500250):
        c = ch.Character({(1, 0, 0): m, (0, 1, 0): m})
        _assert_product(c, c)
        assert (c * c)[(1, 1, 0)] == 2 * m * m
    c = ch.Character({(2, 1, 0): 3 * 2 ** 62, (0, 0, 0): -1})
    _assert_product(c, c)
    assert (c * c)[(0, 0, 0)] == 1 and (c * c)[(4, 2, 0)] == 9 * 2 ** 124


def test_products_of_irreducibles_match_dict_convolution():
    for ab in [(0, 0), (1, 0), (3, 0), (4, 2), (6, 3)]:
        for cd in [(2, 1), (3, 3), (5, 0)]:
            _assert_product(ch.weyl_character(*ab), ch.weyl_character(*cd))
    _assert_product(ch.weyl_character(2, 1), ch.char_trivial())
    assert ch.weyl_character(3, 0) * ch.Character() == {}


def test_product_of_sparse_weights():
    # weights 100 apart fill a 201 x 201 box for 9 pairs: under the floor
    c = ch.Character({(0, 0, 0): 1, (100, 0, 0): 1, (0, 100, 0): -2})
    _assert_product(c, c)
    # 30000 apart the box would hold 3.6e9 entries: refused, not allocated
    c = ch.Character({(0, 0, 0): 1, (30000, 0, 0): 1, (0, 30000, 0): 1})
    with pytest.raises(ValueError, match="too sparse"):
        c * c


def test_cached_characters_stay_unchanged():
    s3, h4 = ch.weyl_character(3, 0), ch._h(4)
    before = dict(s3), dict(h4)
    assert before[1] == {ch.normalize((i, j, 4 - i - j)): 1
                         for i in range(5) for j in range(5 - i)}
    assert s3.dimension() == 10
    ch.decompose(ch.sym_power(4, s3))
    ch.decompose(s3 * h4 - h4.scale(2))
    ch.decompose(ch.from_modules([(3, 0), (3, 0), (4, 2)]))
    ch.hook_schur(2, 1, s3)
    assert (dict(ch.weyl_character(3, 0)), dict(ch._h(4))) == before
    assert ch.weyl_character(3, 0) is s3


def test_derived_characters_keep_normalized_keys():
    c = ch.weyl_character(2, 1) - ch.weyl_character(1, 0).scale(2)
    for derived, expect in [(-c, {w: -m for w, m in c.items()}),
                            (c.scale(3), {w: 3 * m for w, m in c.items()}),
                            (c.scale(3).exact_div(3), dict(c)),
                            (ch.adams(2, c), {tuple(2 * t for t in w): m
                                              for w, m in c.items()})]:
        assert isinstance(derived, ch.Character) and dict(derived) == expect
    assert c.scale(0) == {}
    assert c.dual() == ch.Character({(-w[0], -w[1], -w[2]): m for w, m in c.items()})
    with pytest.raises(ValueError, match="not divisible"):
        c.exact_div(2)


def _sha256(x):
    return hashlib.sha256(repr(x).encode()).hexdigest()


# taken before the products were vectorized and decompose peeled in place
SYM8_SHA256 = "78c3e65878b19a598baa4971af86849469863332831d1cdb8997476eb6f088d2"
IDENTITY_SHA256 = {
    "Z1": "c9b99ab3d3b6f01d29ed009749561d6f18c478a107882344b81c825c9d050964",
    "Y1": "e8a094f0ef5771e6abbf41d478c8a71093e9cf062a320cc01e9cb46976a4d2b0",
    "Z40": "e9031200281222bf78113a49370ca0158f8e9de6e2d0867a5062e393df4a9ccf",
    "Y41": "5bf2c51f781c7ebe702e3950c5d3d015c929734dfd0d2380a7d5beb6c8d0540a",
    "NEG1": "a6f74d4553d852a4ab13b5e09d48727ee1304b02a7f2c05af63d9d85bd24f751",
    "DELTA1": "aa4cac405ccce81b6398bce2d392e1d61d04e2d8706b87446d22d249022c32f3",
    "VER2": "6536867e5ab96448dac7ab7a2c5aeae54defe8aceed97f8c74be47e1aef5478b",
    "VER3": "e0b207ecbd2f250359ccf419dc64db7aac4d0b486cc2c035eeda2b77655e75e9",
    "DELTAH": "7de8aa8f219e2a1ca3d56a940deb010aae4279cc483d0e9d1e6590b75deeed13",
    "TACT61": "6f1dd68836b289c074cbc25c52b448d81eeeb07a3a173d51fef1bf659bd9109c",
    "EMPTY82": "dc03ec99d99dcb379743efc3c0ea64176bb2fd43f83cad331f2673a3b8f0850b",
}
EAGON_NORTHCOTT_SHA256 = "7d99d0c34616237511272c43194f9dae1043b9d24e484f6a5f7783f9975ef31a"
DECOMPOSE_SYM_20_0_3_SHA256 = (
    "bdb532331914b7b56fa5a08810aa1a13a090539d35dc40e86d97257ee60e2afe")


def test_decompositions_golden():
    assert _sha256(ch.decompose(ch.sym_power(8, ch.weyl_character(3, 0)))) == SYM8_SHA256
    assert set(IDENTITY_SHA256) == set(resolution.IDENTITY_NAMES)
    for name, digest in IDENTITY_SHA256.items():
        assert _sha256(resolution.spectral_identity(name)) == digest, name
    assert _sha256(resolution.eagon_northcott_terms()) == EAGON_NORTHCOTT_SHA256


def test_decompose_sym_20_0_cube_golden(capsys):
    assert cli.main(["char", "decompose-sym", "20", "0", "--power", "3"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("(60,0) + (58,2) + (57,3) + ")
    assert hashlib.sha256(out.encode()).hexdigest() == DECOMPOSE_SYM_20_0_3_SHA256


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


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 5), st.integers(0, 5),
       st.tuples(*[st.integers(0, 6)] * 3).filter(lambda w: not w[0] >= w[1] >= w[2]),
       st.integers(1, 3))
def test_decompose_rejects_one_weight_off_its_orbit(a, b, w, m):
    # w is not dominant, so its orbit's multiplicity at w no longer matches
    # the one at its dominant representative
    c = ch.weyl_character(a, min(a, b)) + ch.Character({w: m})
    with pytest.raises(ValueError, match="not Weyl-symmetric"):
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
    rebuilt = ch.from_modules([ab for ab, m in dec for _ in range(m)])
    assert rebuilt == prod
