"""Graded kernels, Hilbert values, syzygies, and concomitant membership."""

import numpy as np
import pytest

from ternary_cubics import brackets, ideals, linalg, loci
from ternary_cubics.characters import dim_irrep

PRIMES = (1000003, 65537)


def test_monomials_by_weight():
    blocks, idx = ideals.monomials_by_weight(2)
    total = sum(len(ms) for ms in blocks.values())
    assert total == 55          # dim Sym^2 of a 10-dim space
    # weights are consistent and the index maps are positional
    from ternary_cubics.poly import A_EXPS
    for w, ms in blocks.items():
        for m in ms:
            got = tuple(sum(A_EXPS[r][i] for r in m) for i in range(3))
            assert got == w
        assert idx[w] == {m: i for i, m in enumerate(ms)}


def test_graded_kernel_equiv_degree2():
    gp = ideals.graded_kernel("equiv", 2, primes=PRIMES)
    assert gp.dimension() == 27
    assert gp.decomposition == [((4, 2), 1)]


def test_graded_kernel_neq_degree3():
    gp = ideals.graded_kernel("neq", 3, primes=PRIMES)
    assert gp.dimension() == 20
    assert sorted(ab for ab, m in gp.decomposition) == [(3, 0), (3, 3)]


def test_graded_kernel_tact_degree4():
    gp = ideals.graded_kernel("tact", 4, primes=PRIMES)
    assert gp.dimension() == 1
    assert gp.decomposition == [((0, 0), 1)]


def test_kernel_basis_vanishes_on_samples():
    gp = ideals.graded_kernel("equiv", 2, primes=(1000003,))
    for k in range(5):
        pt = loci.sample("equiv", seed=k, p=1000003)
        assert gp.vanishes_at(pt, 1000003)
    # a random cubic is (with overwhelming probability) not on the locus
    rng = np.random.default_rng(1)
    off = tuple(int(v) for v in rng.integers(1, 1000003, size=10))
    assert not gp.vanishes_at(off, 1000003)


def test_hilbert_values():
    assert ideals.hilbert_value("equiv", 2) == 55 - 27   # = 28
    assert ideals.hilbert_value("equiv", 3) == 55        # actually H(3) = 55
    assert ideals.hilbert_value("neq", 3) == 220 - 20
    # determinism for a fixed seed
    assert (ideals.hilbert_value("delta", 3, seed=4)
            == ideals.hilbert_value("delta", 3, seed=4))


def test_syzygy_equiv():
    sp = ideals.syzygy_kernel("equiv", primes=PRIMES)
    assert sp.n_generators == 27
    assert sp.dimension() == 105
    assert sorted(ab for ab, m in sp.decomposition) == [
        (2, 1), (4, 2), (5, 1), (5, 4)]


def test_syzygy_neq():
    sp = ideals.syzygy_kernel("neq", primes=PRIMES)
    assert sp.dimension() == 45
    assert sorted(ab for ab, m in sp.decomposition) == [(2, 1), (3, 3), (4, 2)]


def test_isotypic_match():
    assert ideals.isotypic_match("Phi222", "equiv", 2, primes=(1000003,))
    assert ideals.isotypic_match("Phi303", "neq", 3, primes=(1000003,))
    # negative control: the (5,1)-isotypic triangle concomitant cannot lie in
    # the one-dimensional invariant kernel of the tangency locus
    assert not ideals.isotypic_match("Phi441", "tact", 4, primes=(1000003,))


def test_concomitant_coefficients_shape():
    coeffs, tabs = ideals.concomitant_coefficients("Phi222")
    assert len(tabs) == dim_irrep(4, 2) == 27
    assert len(coeffs) == 27
    assert all(c for c in coeffs)     # the 27 equations are all nonzero


def test_syzygy_relation_check():
    counts = ideals.syzygy_relation_check()
    assert counts == {"Psi54": 35, "Psi51": 35, "Psi42": 27, "Psi21": 8}
    assert sum(counts.values()) == 105


def test_unlucky_prime_guard():
    with pytest.raises(linalg.UnluckyPrimeError):
        raise linalg.UnluckyPrimeError("synthetic")


def test_piece_to_dict_round():
    gp = ideals.graded_kernel("equiv", 2, primes=PRIMES)
    d = ideals.piece_to_dict(gp)
    assert d["dimension"] == 27
    assert d["locus"] == "equiv"
    assert sum(b["nullity"] for b in d["blocks"]) == 27
    assert d["character"] == [{"a": 4, "b": 2, "mult": 1}]


# ---------------------------------------------------------------------------
# the Weyl-orbit reduction
# ---------------------------------------------------------------------------

from ternary_cubics import cli, resolution  # noqa: E402

SMALL_ANCHORS = [(lid, deg) for lid, deg, _, _ in cli.KERNEL_ANCHORS if deg < 8]


@pytest.mark.parametrize("lid,deg", SMALL_ANCHORS,
                         ids=[f"{l}-{d}" for l, d in SMALL_ANCHORS])
def test_dominant_nullities_equal_all_block_nullities(lid, deg):
    gp = ideals.graded_kernel(lid, deg, primes=PRIMES)
    assert ideals.full_block_nullities(lid, deg, PRIMES) == {p: gp.block_nullities
                                                            for p in PRIMES}


@pytest.mark.parametrize("lid", loci.LOCI)
def test_hilbert_value_matches_numerator(lid):
    for ell in range(1, 7):
        assert ideals.hilbert_value(lid, ell) == resolution.hilbert_from_numerator(lid, ell)


@pytest.mark.parametrize("lid,deg", [("equiv", 2), ("neq", 3), ("delta", 4), ("tact", 5)])
def test_transported_bases_are_kernels(lid, deg):
    p = PRIMES[0]
    gp = ideals.graded_kernel(lid, deg, primes=(p,))
    basis = gp.bases[p]
    assert {w: len(B) for w, (_, B) in basis.items()} == gp.block_nullities
    images = ideals._image_blocks(lid, deg, dominant_only=False)
    moved = [w for w in basis if not ideals.is_dominant(w)]
    assert moved
    for w in moved:
        monos, B = basis[w]
        full_monos, image = images[w]
        A = ideals._block_mod(image, p)
        assert monos == full_monos
        assert not np.any((A @ B.T) % p)
        assert linalg.rank_mod(B, p) == len(B)


def test_graded_kernel_walks_the_tree_once_for_all_primes(monkeypatch):
    ideals._dominant_prefixes(4)      # warm the cached monomial lists
    monkeypatch.setitem(ideals._KERNEL_CACHE, ("delta", 4), {})
    walk = ideals._walk
    calls = []

    def counting_walk(degree, *args, **kwargs):
        calls.append(degree)
        return walk(degree, *args, **kwargs)

    monkeypatch.setattr(ideals, "_walk", counting_walk)
    gp = ideals.graded_kernel("delta", 4, primes=PRIMES)
    assert calls == [4]
    assert gp.dimension() == 35 and set(gp.bases) == set(PRIMES)


def test_walk_prunes_to_dominant_blocks():
    blocks, _ = ideals.monomials_by_weight(5)
    seen = {}
    ideals._walk(5, None, lambda s, r: None,
                 lambda mono, w, s: seen.setdefault(w, []).append(mono))
    assert seen == {w: ms for w, ms in blocks.items() if ideals.is_dominant(w)}
    assert len(seen) == 27 and len(blocks) == 136


def test_vanishes_at_reduces_long_dot_products(monkeypatch):
    p = PRIMES[0]
    gp = ideals.graded_kernel("delta", 4, primes=(p,))
    on = loci.sample("delta", seed=3, p=p)
    off = tuple(range(1, 11))
    monkeypatch.setattr(linalg, "DOT_TERMS", 2)
    assert gp.vanishes_at(on, p)
    assert not gp.vanishes_at(off, p)
    # a basis mod one prime says nothing about vanishing mod another
    with pytest.raises(ValueError, match="no kernel basis modulo 65537"):
        gp.vanishes_at(loci.sample("delta", seed=3, p=65537), 65537)


def test_kernel_disagreement_names_the_block(monkeypatch):
    monkeypatch.setitem(ideals._KERNEL_CACHE, ("equiv", 2), {})
    nullspace = linalg.nullspace_mod

    def drop_one(A, p):
        N = nullspace(A, p)
        return N[:, :-1] if p == 65537 and N.shape[1] else N

    monkeypatch.setattr(linalg, "nullspace_mod", drop_one)
    with pytest.raises(linalg.UnluckyPrimeError,
                       match=r"weight block \(\d+, \d+, \d+\) has nullity "
                             r"\{1000003: (\d+), 65537: (?!\1)\d+\}"):
        ideals.graded_kernel("equiv", 2, primes=PRIMES)


def test_syzygy_disagreement_names_the_block(monkeypatch):
    ideals.graded_kernel("equiv", 2, primes=PRIMES)
    nullity = linalg.nullity_mod
    monkeypatch.setattr(linalg, "nullity_mod",
                        lambda A, p: nullity(A, p) + (p == 65537))
    with pytest.raises(linalg.UnluckyPrimeError,
                       match=r"syzygies of equiv degree 2: weight block .* "
                             r"\{1000003: \d+, 65537: \d+\}"):
        ideals.syzygy_kernel("equiv", 2, primes=PRIMES)


def test_entry_points_check_the_prime():
    with pytest.raises(ValueError, match="not prime"):
        ideals.graded_kernel("delta", 4, primes=(1000003, 1000000))
    with pytest.raises(ValueError, match="outside"):
        ideals.hilbert_value("delta", 4, prime=4294967311)
    with pytest.raises(ValueError):
        loci.sample("delta", seed=0, p=1000000)
    with pytest.raises(ValueError):
        brackets.vanishes_at_cubic(brackets.catalog_concomitant("Phi222"),
                                   loci.NAMED_CUBICS["fermat"], 2 ** 64 - 59)
