"""Graded kernels, Hilbert values, syzygies, and concomitant membership."""

import ast
import functools
import hashlib
import itertools
import math
import os
import random
import re
import subprocess
import sys
from fractions import Fraction
from operator import add
from pathlib import Path

import numpy as np
import pytest

from ternary_cubics import brackets, ideals, linalg, loci, resolution, tableaux
from ternary_cubics.characters import (Character, decompose, dim_irrep, sym_power,
                                      weyl_character)
from ternary_cubics.poly import A_EXPS, A_INDEX, Poly, monomial

PRIMES = (1000003, 65537)
SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture
def pieces(monkeypatch):
    """An empty graded-piece cache in place of ideals._PIECES, for this test only."""
    cache = {}
    monkeypatch.setattr(ideals, "_PIECES", cache)
    return cache


def _a_poly(m):
    """The a-monomial of the index tuple m as a Poly."""
    return Poly({monomial([(f"a{r}", 1) for r in m]): 1})


def test_monomials_by_weight():
    blocks = ideals.monomials_by_weight(2)
    total = sum(len(ms) for ms in blocks.values())
    assert total == 55          # dim Sym^2 of a 10-dim space
    # weights are consistent, and poly_to_block_vectors places each monomial
    # at its index in its block's list
    for w, ms in blocks.items():
        for m in ms:
            got = tuple(sum(A_EXPS[r][i] for r in m) for i in range(3))
            assert got == w
            ((bw, vec),) = ideals.poly_to_block_vectors(_a_poly(m), 2).items()
            assert bw == w and vec.index(1) == ms.index(m) and sum(vec) == 1
    # a polynomial over many blocks lands in each at the listed positions
    blocks = ideals.monomials_by_weight(4)
    some = [m for ms in blocks.values() for m in ms[::7]]
    vectors = ideals.poly_to_block_vectors(sum(map(_a_poly, some), Poly()), 4)
    assert sorted(vectors) == sorted({w for w, ms in blocks.items() if ms[::7]})
    for w, vec in vectors.items():
        assert [i for i, c in enumerate(vec) if c] == [blocks[w].index(m) for m in some
                                                      if m in blocks[w]]
    # the packed weights against weights summed one monomial at a time, with
    # the blocks and their monomials in lexicographic order
    for degree in range(10):
        ref = {}
        for m in itertools.combinations_with_replacement(range(10), degree):
            ref.setdefault(tuple(sum(A_EXPS[r][i] for r in m) for i in range(3)), []).append(m)
        assert list(ideals.monomials_by_weight(degree).items()) == list(ref.items())


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
    assert ideals.isotypic_match("Phi222", "equiv")
    assert ideals.isotypic_match("Phi303", "neq")
    # negative control: the (5,1)-isotypic triangle concomitant cannot lie in
    # the one-dimensional invariant kernel of the tangency locus
    assert not ideals.isotypic_match("Phi441", "tact")


def test_concomitant_coefficients_shape():
    coeffs, tabs = ideals.concomitant_coefficients("Phi222")
    assert len(tabs) == dim_irrep(4, 2) == 27
    assert len(coeffs) == 27
    assert all(c for c in coeffs)     # the 27 equations are all nonzero


def test_syzygy_relation_check():
    counts = ideals.syzygy_relation_check()
    assert counts == {"Psi54": 35, "Psi51": 35, "Psi42": 27, "Psi21": 8}
    assert sum(counts.values()) == 105


def test_syzygy_relation_check_fails_under_python_O():
    # Phi222's own coefficients in place of every Psi pair to a nonzero
    # invariant; the check must say so even with assert statements stripped
    script = "\n".join([
        "from ternary_cubics import ideals",
        "own = ideals.concomitant_coefficients",
        "ideals.concomitant_coefficients = lambda name: own('Phi222')",
        "try:",
        "    print(ideals.syzygy_relation_check())",
        "except AssertionError as exc:",
        "    print('AssertionError', exc)",
    ])
    proc = subprocess.run([sys.executable, "-O", "-c", script],
                          env={**os.environ, "PYTHONPATH": str(SRC)},
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("AssertionError Psi54: nonzero syzygy coefficient")


def test_negative_degree_raises():
    # no node of the monomial tree has length -1, so the walk never ended
    with pytest.raises(ValueError, match="degree must be at least 0"):
        ideals.graded_kernel("equiv", -1, primes=PRIMES)
    with pytest.raises(ValueError, match="degree must be at least 0"):
        ideals.hilbert_value("equiv", -1)


def test_large_degree_raises_before_listing(monkeypatch):
    # degree 12 (the Koszul cells of the Betti ledger) is admitted, degree 20
    # refused before a single monomial is listed
    assert math.comb(12 + 9, 9) <= ideals._MAX_MONOMIALS < math.comb(20 + 9, 9)
    monkeypatch.setattr(ideals, "combinations_with_replacement",
                        lambda *a: pytest.fail("listed"))
    with pytest.raises(ValueError, match=r"degree 20 has C\(29, 9\) = 10,015,005 mono"):
        ideals.monomials_by_weight(20)


def test_syzygy_bound_fails_before_any_kernel(monkeypatch):
    monkeypatch.setattr(ideals, "graded_kernel", lambda *a: pytest.fail("kernel"))
    with pytest.raises(ValueError, match="degree 15 has"):
        ideals.syzygy_kernel("delta", 14)


def test_rejected_kernel_calls_leave_no_cache_entry(pieces):
    for locus, degree in (("bogus", 2), ("equiv", -1)):
        with pytest.raises(ValueError):
            ideals.graded_kernel(locus, degree, primes=PRIMES)
    assert pieces == {}


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


def _dominant_weights(degree):
    """The dominant block weights of one degree, in the order of monomials_by_weight."""
    return [w for w in ideals.monomials_by_weight(degree) if ideals.is_dominant(w)]


def _all_weights(degree):
    """Every block weight of one degree, in the order of monomials_by_weight."""
    return list(ideals.monomials_by_weight(degree))


@pytest.mark.parametrize("lid,deg", SMALL_ANCHORS,
                         ids=[f"{l}-{d}" for l, d in SMALL_ANCHORS])
def test_dominant_nullities_equal_all_block_nullities(lid, deg):
    gp = ideals.graded_kernel(lid, deg, primes=PRIMES)
    assert ideals.full_block_nullities(lid, deg, PRIMES) == gp.block_nullities


@pytest.mark.parametrize("lid", loci.LOCI)
def test_hilbert_value_matches_numerator(lid):
    for ell in range(1, 7):
        assert ideals.hilbert_value(lid, ell) == resolution.hilbert_from_numerator(lid, ell)


@pytest.mark.parametrize("lid,deg", [("equiv", 2), ("neq", 3), ("delta", 4), ("tact", 5)])
def test_lowered_bases_are_kernels(lid, deg):
    # every block, dominant or not, is killed by its own image block, has
    # full rank, and is that block's reduced kernel basis
    gp = ideals.graded_kernel(lid, deg, primes=PRIMES)
    images = ideals._image_blocks(lid, deg, _all_weights(deg))
    for p in PRIMES:
        basis = gp.bases[p]
        assert {w: len(B) for w, B in basis.items()} == gp.block_nullities
        assert any(not ideals.is_dominant(w) for w in basis)
        for w, A in ideals._blocks_mod(images, p):
            if w in basis:
                B = basis[w]
                assert B.shape[1] == len(ideals.monomials_by_weight(deg)[w])
                assert not np.any((A @ B.T) % p)
                assert linalg.rank_mod(B, p) == len(B)
                assert np.array_equal(B, linalg.nullspace_mod(A, p).T)


# SHA-256 over the kernel basis bytes, primes and weights in sorted order.
# Every block holds the reduced basis of its own kernel, unique for a fixed
# column order, so a change to the elimination must leave these digests as
# they are.
KERNEL_BASIS_DIGESTS = {
    ("tact", 5): "e5260a469062dde9712fd308cd3999153bc45c14302e4c06c70633875586d5d2",
    ("delta", 4): "29d66c04fc7de35fd83e4aeda36cd4d41edb2f0146f5bbf9a3d1b2c7eaff952d",
    ("neq", 4): "63de647c5eca597810f61ccea0de14d7f1990506f8bb20e985e3cd32831a9f0c",
}


@pytest.mark.parametrize("lid,deg", sorted(KERNEL_BASIS_DIGESTS))
def test_kernel_bases_are_pinned(lid, deg, pieces):
    gp = ideals.graded_kernel(lid, deg)
    assert sorted(gp.bases) == sorted(linalg.DEFAULT_PRIMES)
    h = hashlib.sha256()
    for p in sorted(gp.bases):
        for w in sorted(gp.bases[p]):
            h.update(gp.bases[p][w].tobytes())
    assert h.hexdigest() == KERNEL_BASIS_DIGESTS[(lid, deg)]


def test_graded_kernel_walks_the_tree_once_for_all_primes(monkeypatch, pieces):
    ideals.monomials_by_weight(4)     # warm the cached monomial lists
    image_blocks = ideals._image_blocks
    calls = []

    def counting_walk(locus, degree, *args, **kwargs):
        calls.append(degree)
        return image_blocks(locus, degree, *args, **kwargs)

    monkeypatch.setattr(ideals, "_image_blocks", counting_walk)
    gp = ideals.graded_kernel("delta", 4, primes=PRIMES)
    assert gp.dimension() == 35 and set(gp.bases) == set(PRIMES)
    assert calls == [4]     # the bases read builds no second image


# SHA-256 over the image blocks of each case, in order: weight, then shape,
# rows, cols and coeffs as lists.  The kernel-basis digests pin the bases, not
# the row order of the images they come from.  delta and y blocks hold one row
# per parameter orbit; tact and empty have no symmetry and keep every row.
IMAGE_CASES = {
    "delta-5-all": [("delta", 5, _all_weights)],
    "tact-5": [("tact", 5, _dominant_weights)],
    "empty-6": [("empty", 6, _dominant_weights)],
    "degrees-0-1": [(lid, deg, weights) for lid in loci.LOCI for deg in (0, 1)
                    for weights in (_dominant_weights, _all_weights)],
}
IMAGE_DIGESTS = {
    "delta-5-all": "7e4a25ed0b7d3a2c52f2d330385632ed43b49a33fc1303d8a6a50187803c83d5",
    "tact-5": "1e869359094bba9956028e0faed3767cb32ae206843819d50ddd678450691354",
    "empty-6": "f427cc12b5e9a849e0f76406194348d603d932ed4456aeded1d0081e23ebd8ad",
    "degrees-0-1": "edaa391303170f615fdad59e491f7d8fbca61ea0abe35e88ce5edc2d7f70b3ab",
}


@pytest.mark.parametrize("case", sorted(IMAGE_CASES))
def test_image_blocks_are_pinned(case):
    h = hashlib.sha256()
    for lid, deg, weights in IMAGE_CASES[case]:
        for w, (shape, rows, cols, coeffs) in ideals._image_blocks(lid, deg, weights(deg)).items():
            h.update(repr((w, shape, rows.tolist(), cols.tolist(), coeffs.tolist())).encode())
    assert h.hexdigest() == IMAGE_DIGESTS[case]


def _reference_phi(locus):
    """phi_r as {packed exponent vector: integer coeff}, r = 0..9."""
    spec = loci.substitution_map(locus)
    pidx = {v: i for i, v in enumerate(spec.params)}
    out = []
    for phi in spec.phi:
        d = {}
        for mo, c in phi.terms.items():
            key = 0
            for v, e in mo:
                key += e << (ideals._SHIFT * pidx[v])
            d[key] = int(c)
        out.append(d)
    return out


def _reference_image_blocks(locus, degree, weights):
    """The images by a dict loop over Python ints, rows by first appearance.

    Returns {weight: (shape, rows, cols, coeffs, {packed key: row})}.
    """
    phi = _reference_phi(locus)
    blocks = ideals.monomials_by_weight(degree)
    # weight -> ({packed param key: row index}, rows, cols, coeffs)
    built = {w: ({}, [], [], []) for w in weights}
    path, prev = [{0: 1}], ()    # path[i]: the image of the first i indices
    for mono, w, j in sorted((m, w, j) for w in built for j, m in enumerate(blocks[w])):
        shared = next((i for i, (r, q) in enumerate(zip(mono, prev)) if r != q), 0)
        del path[shared + 1:]
        for r in mono[shared:]:
            prod = {}
            for k1, c1 in path[-1].items():
                for k2, c2 in phi[r].items():
                    k = k1 + k2
                    prod[k] = prod.get(k, 0) + c1 * c2
            path.append({k: c for k, c in prod.items() if c})
        ki, rows, cols, coeffs = built[w]
        for k, c in path[-1].items():
            rows.append(ki.setdefault(k, len(ki)))
            cols.append(j)
            coeffs.append(c)
        prev = mono
    return {w: ((len(ki), len(blocks[w])), rows, cols, coeffs, ki)
            for w, (ki, rows, cols, coeffs) in built.items()}


def _no_weights(degree):
    """No block at all: the build returns {} at every degree."""
    return []


REFERENCE_CASES = {
    **{lid: [(lid, deg, weights) for deg in range(6)
             for weights in (_dominant_weights, _all_weights)]
       + [(lid, deg, _no_weights) for deg in range(4)]
       for lid in loci.LOCI},
    "empty-8-dominant": [("empty", 8, _dominant_weights)],
}


def _renamed(key, perm):
    """The packed parameter key with parameter i renamed perm[i], field by field."""
    mask = (1 << ideals._SHIFT) - 1
    return sum(((key >> (ideals._SHIFT * i)) & mask) << (ideals._SHIFT * j)
               for i, j in enumerate(perm))


def _assert_matches_the_dict_reference(lid, deg, weights):
    """The library's rows are the reference rows at the keys least in their
    orbits under ideals._symmetries(lid), and every reference row it drops
    equals the row of its orbit's least key."""
    group = ideals._symmetries(lid)
    got = ideals._image_blocks(lid, deg, weights)
    ref = _reference_image_blocks(lid, deg, weights)
    assert list(got) == list(ref)
    for w, (shape, rows, cols, coeffs) in got.items():
        ref_shape, ref_rows, ref_cols, ref_coeffs, keys = ref[w]
        # the reference numbers its rows by first appearance: read them by key
        key_of = {row: k for k, row in keys.items()}
        by_key = {k: {} for k in keys}
        for r, c, x in zip(ref_rows, ref_cols, ref_coeffs):
            by_key[key_of[r]][c] = x
        least = {k: min([k] + [_renamed(k, perm) for perm in group]) for k in keys}
        kept = sorted(k for k in keys if least[k] == k)
        assert shape == (len(kept), ref_shape[1])
        assert sorted(zip(rows.tolist(), cols.tolist(), coeffs.tolist())) \
            == sorted((i, c, x) for i, k in enumerate(kept) for c, x in by_key[k].items())
        for k in keys:
            assert by_key[k] == by_key.get(least[k]), f"{lid} {deg} {w}: row {k} dropped"
        # entries come sorted by column, then row
        assert np.array_equal(np.lexsort((rows, cols)), np.arange(len(rows)))


@pytest.mark.parametrize("case", sorted(REFERENCE_CASES))
def test_image_blocks_match_the_dict_reference(case):
    for lid, deg, weights in REFERENCE_CASES[case]:
        _assert_matches_the_dict_reference(lid, deg, weights(deg))


SYMMETRY_COUNTS = {"equiv": 0, "neq": 0, "y": 1, "delta": 5, "tact": 0, "empty": 0}


def test_parameter_symmetries_are_derived():
    for lid in loci.LOCI:
        spec = loci.substitution_map(lid)
        group = ideals._symmetries(lid)
        assert len(group) == SYMMETRY_COUNTS[lid]
        identity = tuple(range(len(spec.params)))
        # a group: no identity listed, closed under composition
        assert identity not in group
        for s, t in itertools.product(group, repeat=2):
            assert tuple(t[i] for i in s) in group + (identity,)
        # each permutation fixes every phi_r as a polynomial, read from the
        # substitution map and not from the packed tables
        for perm in group:
            rename = {v: spec.params[j] for v, j in zip(spec.params, perm)}
            for phi in spec.phi:
                assert Poly((monomial([(rename[v], e) for v, e in mo]), c)
                            for mo, c in phi.terms.items()) == phi
    # delta: S3 on the lines b, c, d; y: the swap (b, s) <-> (c, t)
    assert ideals._symmetries("y") == ((3, 4, 5, 0, 1, 2, 7, 6),)
    assert set(ideals._symmetries("delta")) == {
        tuple(3 * f + i for f in image for i in range(3))
        for image in itertools.permutations(range(3))} - {tuple(range(9))}


def test_a_false_symmetry_fails_the_dropped_row_comparison(monkeypatch):
    # m <-> k on tact fixes no phi_r; its blocks keep full rank with half the
    # rows gone, so no kernel anchor catches it, but the dropped rows differ
    # from the rows of their orbits' least keys
    swap = (0, 1, 2, 6, 7, 8, 3, 4, 5)
    monkeypatch.setattr(ideals, "_symmetries", lambda locus: (swap,) if locus == "tact" else ())
    with pytest.raises(AssertionError, match="dropped"):
        _assert_matches_the_dict_reference("tact", 3, _all_weights(3))


def test_image_coefficients_past_int64_raise(monkeypatch):
    keys, coeffs = ideals._encoded_phi("delta")
    coeffs = coeffs.copy()
    coeffs[0, 0] = 2 ** 40
    monkeypatch.setattr(ideals, "_encoded_phi", lambda locus: (keys, coeffs))
    # (2^40)^2 would wrap in int64
    with pytest.raises(ValueError, match="past int64"):
        ideals._image_blocks("delta", 2, _dominant_weights(2))
    # degree 1 stays inside, and keeps the coefficient exactly
    assert 2 ** 40 in ideals._image_blocks("delta", 1, [(3, 0, 0)])[(3, 0, 0)][3].tolist()


def test_walk_prunes_to_dominant_blocks():
    # the build returns the blocks asked for, in their order, and a block
    # built alone equals the same block built with all the others
    blocks = ideals.monomials_by_weight(5)
    dominant = _dominant_weights(5)
    assert list(ideals._image_blocks("delta", 5, dominant)) == dominant and len(dominant) == 27
    every = ideals._image_blocks("delta", 5, _all_weights(5))
    assert list(every) == list(blocks)
    assert len(blocks) == 136
    some = dominant[::-4]
    alone = ideals._image_blocks("delta", 5, some)
    assert list(alone) == some
    for w in some:
        (shape, *arrays), (shape_all, *arrays_all) = alone[w], every[w]
        assert shape == shape_all and all(map(np.array_equal, arrays, arrays_all))


def test_vanishes_at_separates_points_modulo_its_prime():
    p = PRIMES[0]
    gp = ideals.graded_kernel("delta", 4, primes=(p,))
    on = loci.sample("delta", seed=3, p=p)
    off = tuple(range(1, 11))
    assert gp.vanishes_at(on, p)
    assert not gp.vanishes_at(off, p)
    # a basis mod one prime says nothing about vanishing mod another
    with pytest.raises(ValueError, match="no kernel basis modulo 65537"):
        gp.vanishes_at(loci.sample("delta", seed=3, p=65537), 65537)


def test_vanishes_at_checks_the_prime_before_building_a_basis(monkeypatch, pieces):
    # a prime outside the piece's primes is refused before any lowering
    gp = ideals.graded_kernel("delta", 4, primes=(PRIMES[0],))
    monkeypatch.setattr(linalg, "rowbasis_mod", lambda *a: pytest.fail("built a basis"))
    with pytest.raises(ValueError, match=r"no kernel basis modulo 65537; have \[1000003\]"):
        gp.vanishes_at(loci.sample("delta", seed=3, p=65537), 65537)
    assert "bases" not in vars(gp)


def test_kernel_disagreement_names_the_block(monkeypatch, pieces):
    # one highest-weight kernel vector dropped at 65537; the highest-weight
    # bases of R_2 are built first, so only the kernel's products see the drop
    for p in PRIMES:
        ideals.highest_weight_bases(2, p)
    nullspace = linalg.nullspace_mod

    def drop_one(A, p):
        N = nullspace(A, p)
        return N[:, :-1] if p == 65537 and N.shape[1] else N

    monkeypatch.setattr(linalg, "nullspace_mod", drop_one)
    with pytest.raises(linalg.UnluckyPrimeError,
                       match=r"kernel of equiv degree 2: weight block \(\d+, \d+, \d+\) has "
                             r"nullity \{1000003: (\d+), 65537: (?!\1)\d+\}"):
        ideals.graded_kernel("equiv", 2, primes=PRIMES)
    assert pieces == {}


def test_syzygy_disagreement_names_the_block(monkeypatch):
    ideals.graded_kernel("equiv", 2, primes=PRIMES)
    nullity = linalg.nullity_mod
    monkeypatch.setattr(linalg, "nullity_mod",
                        lambda A, p: nullity(A, p) + (p == 65537))
    for compute, what in ((ideals.syzygy_kernel, "syzygies"),
                          (ideals.full_block_nullities, "all blocks")):
        with pytest.raises(linalg.UnluckyPrimeError,
                           match=rf"{what} of equiv degree 2: weight block "
                                 r"\(\d+, \d+, \d+\) has nullity \{1000003: \d+, 65537: \d+\}"):
            compute("equiv", 2, PRIMES)


def test_weyl_orbit_check_reports_the_disagreeing_block(monkeypatch):
    # the piece is computed first, so only the all-block eliminations see the patch
    ideals.graded_kernel("delta", 5, PRIMES)
    nullity = linalg.nullity_mod
    monkeypatch.setattr(linalg, "nullity_mod",
                        lambda A, p: nullity(A, p) + (p == 65537))
    orbits = dict(cli.build_checks())["weyl-orbits-delta-5"]
    monkeypatch.setattr(cli, "build_checks", lambda: [("weyl-orbits-delta-5", orbits)])
    config = {"primes": PRIMES, "seed": 0, "lmax": 1, "timings": False}
    (check,) = cli.run_verify_all(config)["checks"]
    assert check["status"] == "fail"
    assert re.fullmatch(r"unlucky prime: all blocks of delta degree 5: weight block "
                        r"\(\d+, \d+, \d+\) has nullity \{1000003: \d+, 65537: \d+\} "
                        r"by prime", check["actual"])


@pytest.mark.parametrize("compute", [
    ideals.graded_kernel, ideals.syzygy_kernel, ideals.full_block_nullities,
], ids=["graded_kernel", "syzygy_kernel", "full_block_nullities"])
def test_empty_prime_sets_are_rejected(compute, monkeypatch, pieces):
    # no prime used to fail on an empty list index, or to agree vacuously
    monkeypatch.setattr(ideals, "_image_blocks", lambda *a, **k: pytest.fail("walked"))
    with pytest.raises(ValueError, match="at least one prime"):
        compute("equiv", 2, ())
    with pytest.raises(ValueError, match="not prime"):
        compute("equiv", 2, (1000003, 1000000))


def test_weight_blocks_are_solved_in_one_place():
    # every block elimination in ideals goes through _solve_blocks, and only
    # _solve_blocks compares primes
    tree = ast.parse((SRC / "ternary_cubics" / "ideals.py").read_text())
    in_args = {id(node) for call in ast.walk(tree) if isinstance(call, ast.Call)
               and getattr(call.func, "id", None) == "_solve_blocks"
               for arg in call.args + [k.value for k in call.keywords]
               for node in ast.walk(arg)}
    solves = [node for node in ast.walk(tree) if isinstance(node, ast.Attribute)
              and getattr(node.value, "id", None) == "linalg"
              and node.attr in ("nullspace_mod", "nullity_mod", "rank_mod")]
    assert {node.attr for node in solves} == {"nullspace_mod", "nullity_mod", "rank_mod"}
    assert [ast.unparse(node) for node in solves if id(node) not in in_args] == []
    helper = [node for node in tree.body
              if isinstance(node, ast.FunctionDef) and node.name == "_solve_blocks"]
    inside = {id(node) for fn in helper for node in ast.walk(fn)}
    raises = [node for node in ast.walk(tree) if isinstance(node, ast.Raise)
              and node.exc is not None and "UnluckyPrimeError" in ast.unparse(node.exc)]
    assert helper and raises
    assert [node.lineno for node in raises if id(node) not in inside] == []


@pytest.mark.parametrize("lid", loci.LOCI)
def test_hilbert_blocks_are_point_evaluations(lid, monkeypatch):
    # rank_mod sees B E mod p for each irreducible: B the block's
    # highest-weight basis, E's row i, column k the block's i-th monomial at
    # the k-th sample point, one matrix of m x (m + margin) per lam with m > 0
    p, deg = linalg.DEFAULT_PRIMES[0], 5
    rank = linalg.rank_mod
    seen = []
    monkeypatch.setattr(linalg, "rank_mod", lambda A, q: seen.append(A.copy()) or rank(A, q))
    ideals.hilbert_value(lid, deg, seed=0)
    blocks = ideals.monomials_by_weight(deg)
    mults = dict(decompose(sym_power(deg, weyl_character(3, 0))))
    bases = ideals.highest_weight_bases(deg, p)
    assert len(seen) == len(bases) == len(mults)
    phi = loci.substitution_map(lid).phi
    points = {}
    for (w, B), A in zip(bases.items(), seen):
        m = mults[(w[0] - w[2], w[1] - w[2])]
        assert A.shape == (m, m + ideals.HILBERT_MARGIN)
        for k in range(A.shape[1]):
            if k not in points:
                params = loci.sample_params(lid, random.Random(repr((0, k))), p)
                points[k] = [phi_r.evaluate(params, p) for phi_r in phi]
            values = [math.prod(points[k][r] for r in mono) for mono in blocks[w]]
            assert A[:, k].tolist() == [sum(b * v for b, v in zip(row, values)) % p
                                        for row in B.tolist()]
    assert max(A.shape[0] for A in seen) == 2


def test_hilbert_points_are_drawn_once(monkeypatch):
    # H(locus, 1..6) reads the first max m + HILBERT_MARGIN points of one
    # sequence, m the dimension of a highest-weight space; every degree
    # shares them, so each is drawn once
    p = linalg.DEFAULT_PRIMES[0]
    npoints = max(len(B) for deg in range(1, 7)
                  for B in ideals.highest_weight_bases(deg, p).values()) + ideals.HILBERT_MARGIN
    assert npoints == 14
    draw = loci.sample_params
    draws = []
    monkeypatch.setattr(loci, "sample_params", lambda *a: draws.append(a[0]) or draw(*a))
    loci.sample.cache_clear()
    for lid in loci.LOCI:
        assert all(r["ok"] for r in resolution.hilbert_consistency(lid, 6, seed=0))
    assert [draws.count(lid) for lid in loci.LOCI] == [npoints] * len(loci.LOCI)


def test_one_sampler_of_locus_points():
    # locus points come from loci.sample alone: only it draws parameters, and
    # ideals evaluates no polynomial at a point of its own
    def calls(path):
        tree = ast.parse(path.read_text())
        return [(getattr(top, "name", "<module>"), node) for top in tree.body
                for node in ast.walk(top) if isinstance(node, ast.Call)]

    package = SRC / "ternary_cubics"
    drawers = {(path.stem, owner) for path in package.glob("*.py")
               for owner, call in calls(path)
               if ast.unparse(call.func).split(".")[-1] == "sample_params"}
    assert drawers == {("loci", "sample")}
    assert [ast.unparse(call) for _, call in calls(package / "ideals.py")
            if isinstance(call.func, ast.Attribute) and call.func.attr == "evaluate"] == []


def test_one_walk_over_the_monomial_tree():
    # the monomial lists come from one enumeration, and the image build reads
    # them instead of walking the tree a second time
    tree = ast.parse((SRC / "ternary_cubics" / "ideals.py").read_text())

    def owners(match):
        return {getattr(top, "name", "<module>") for top in tree.body
                for node in ast.walk(top) if match(node)}

    assert owners(lambda n: isinstance(n, ast.Call)
                  and "combinations_with_replacement" in ast.unparse(n.func)) \
        == {"monomials_by_weight"}
    assert "_image_blocks" in owners(lambda n: isinstance(n, ast.Name)
                                     and n.id == "monomials_by_weight")
    assert not hasattr(ideals, "_dominant_prefixes")


def test_entry_points_check_the_prime():
    with pytest.raises(ValueError, match="not prime"):
        ideals.graded_kernel("delta", 4, primes=(1000003, 1000000))
    with pytest.raises(ValueError, match="outside"):
        ideals.hilbert_value("delta", 4, prime=4294967311)
    with pytest.raises(ValueError):
        loci.sample("delta", seed=0, p=1000000)
    with pytest.raises(ValueError):
        brackets.vanishes_at_cubics(brackets.catalog_concomitant("Phi222"),
                                    [loci.NAMED_CUBICS["fermat"]], 2 ** 64 - 59)


# ---------------------------------------------------------------------------
# highest-weight vectors
# ---------------------------------------------------------------------------

def _raised(vector, monos, step, read, p):
    """D(vector) mod p as {monomial: coefficient}, D a_s = (e_s[read] + 1) a_{s+step}
    applied to each factor of each monomial in turn."""
    out = {}
    for c, m in zip(vector, monos):
        for k, s in enumerate(m):
            e = A_EXPS[s]
            up = tuple(e[i] + step[i] for i in range(3))
            if min(up) >= 0:
                t = tuple(sorted(m[:k] + (A_EXPS.index(up),) + m[k + 1:]))
                out[t] = (out.get(t, 0) + c * (e[read] + 1)) % p
    return {t: c for t, c in out.items() if c}


@pytest.mark.parametrize("p", linalg.DEFAULT_PRIMES)
def test_highest_weight_counts_are_plethysm_coefficients(p):
    for deg in range(9):
        bases = ideals.highest_weight_bases(deg, p)
        assert all(ideals.is_dominant(w) for w in bases)
        assert ({(w[0] - w[2], w[1] - w[2]): len(B) for w, B in bases.items()}
                == dict(decompose(sym_power(deg, weyl_character(3, 0)))))


def test_highest_weight_vectors_are_killed_by_both_raising_maps():
    p = linalg.DEFAULT_PRIMES[0]
    for deg in range(9):
        blocks = ideals.monomials_by_weight(deg)
        for w, B in ideals.highest_weight_bases(deg, p).items():
            assert linalg.rank_mod(B, p) == len(B)
            for v in B.tolist():
                assert _raised(v, blocks[w], (1, -1, 0), 0, p) == {}
                assert _raised(v, blocks[w], (0, 1, -1), 1, p) == {}


def test_a_missing_highest_weight_vector_raises_and_caches_nothing(monkeypatch):
    # a prime no other test builds a basis for, so the call cannot hit the cache
    p, deg = 999983, 4
    before = ideals.highest_weight_bases.cache_info().currsize
    nullspace = linalg.nullspace_mod
    dropped = []

    def drop_one(A, q):
        N = nullspace(A, q)
        if N.shape[1] and not dropped:
            dropped.append(N.shape)
            return N[:, :-1]
        return N

    monkeypatch.setattr(linalg, "nullspace_mod", drop_one)
    with pytest.raises(linalg.UnluckyPrimeError) as err:
        ideals.highest_weight_bases(deg, p)
    got = re.fullmatch(r"highest-weight vectors of degree 4: weight block \((\d+), (\d+), (\d+)\) "
                       r"has nullity \{999983: (\d+), 'exact': (\d+)\} by prime", str(err.value))
    assert got and int(got[4]) + 1 == int(got[5]) == dropped[0][1]
    w = tuple(int(x) for x in got.groups()[:3])
    assert len(ideals.monomials_by_weight(deg)[w]) == dropped[0][0]
    assert ideals.highest_weight_bases.cache_info().currsize == before
    monkeypatch.setattr(linalg, "nullspace_mod", nullspace)
    assert len(ideals.highest_weight_bases(deg, p)[w]) == int(got[5])


# the raising and lowering derivations as (weight step, exponent read), as in ideals
_RAISING_STEPS = (((1, -1, 0), 0), ((0, 1, -1), 1))
_LOWERING_STEPS = (((-1, 1, 0), 1), ((0, -1, 1), 2))


def _positions(degree):
    """{weight: {monomial: position}}, the index dicts monomials_by_weight
    used to return beside its lists."""
    return {w: {m: i for i, m in enumerate(ms)}
            for w, ms in ideals.monomials_by_weight(degree).items()}


def _reference_raising_maps(degree, w, steps=_RAISING_STEPS):
    """The former per-monomial loop that filled the raising matrices of
    ideals.highest_weight_bases, kept verbatim but for returning the maps
    apart and taking the (step, read) pairs: column col is the image of the
    block's col-th monomial."""
    blocks, index = ideals.monomials_by_weight(degree), _positions(degree)
    maps = []
    for step, read in steps:
        t = tuple(map(add, w, step))
        A = np.zeros((len(index.get(t, ())), len(blocks[w])), dtype=np.int64)
        for col, m in enumerate(blocks[w]):
            for s in set(m):
                e, k = A_EXPS[s], m.index(s)
                up = A_INDEX.get(tuple(map(add, e, step)))
                if up is not None:
                    # Leibniz: a_s^c goes to c (e_s[read] + 1) a_s^(c-1) a_up
                    raised = tuple(sorted(m[:k] + (up,) + m[k + 1:]))
                    A[index[t][raised], col] = m.count(s) * (e[read] + 1)
        maps.append(A)
    return tuple(maps)


def _reference_highest_weight_bases(degree, p):
    """The former ideals.highest_weight_bases: one nullspace of the two raising
    maps stacked, for every dominant block, each count checked against its
    plethysm coefficient."""
    p = linalg.check_prime(p)
    blocks = ideals.monomials_by_weight(degree)
    dominant = [w for w in blocks if ideals.is_dominant(w)]
    mults = dict(decompose(sym_power(degree, weyl_character(3, 0))))
    exact = {w: mults.get((w[0] - w[2], w[1] - w[2]), 0) for w in dominant}

    def raising(_):
        for w in dominant:
            yield w, np.vstack(_reference_raising_maps(degree, w))

    results, _ = ideals._solve_blocks(f"highest-weight vectors of degree {degree}", (p,),
                                      raising, lambda A, q: linalg.nullspace_mod(A, q).T.copy(),
                                      exact=exact)
    return {w: B for w, B in results[p].items() if len(B)}


def _solved_weights(degree):
    """The dominant weights of R_degree whose plethysm coefficient is nonzero."""
    blocks = ideals.monomials_by_weight(degree)
    mults = dict(decompose(sym_power(degree, weyl_character(3, 0))))
    return [w for w in blocks
            if ideals.is_dominant(w) and mults.get((w[0] - w[2], w[1] - w[2]))]


@pytest.mark.parametrize("p", linalg.DEFAULT_PRIMES)
def test_highest_weight_bases_span_the_stacked_kernel(p):
    for deg in range(9):
        reference = _reference_highest_weight_bases(deg, p)
        bases = ideals.highest_weight_bases(deg, p)
        assert list(bases) == list(reference)
        for w, B in bases.items():
            assert linalg.rank_mod(B, p) == len(B) == len(reference[w])
            assert linalg.rank_mod(np.vstack([reference[w], B]), p) == len(B)


def test_raising_maps_match_the_per_monomial_loop():
    # raising on the blocks that hold an irreducible, as highest_weight_bases
    # reads it, and lowering on every block, as GradedPiece.bases may read it
    cases = [(ideals._RAISING, _RAISING_STEPS, deg, w)
             for deg in range(9) for w in _solved_weights(deg)]
    cases += [(ideals._LOWERING, _LOWERING_STEPS, deg, w)
              for deg in range(9) for w in _all_weights(deg)]
    for derivations, steps, deg, w in cases:
        got, want = ideals._weight_maps(deg, w, derivations), _reference_raising_maps(deg, w, steps)
        assert [D.shape for D in got] == [D.shape for D in want]
        assert all(np.array_equal(D, R) for D, R in zip(got, want))


def _recording_solves(monkeypatch, nullspace):
    """Patch _solve_blocks to note the weight of the block being solved, and
    linalg.nullspace_mod to nullspace(A, q, weight)."""
    solve_blocks = ideals._solve_blocks
    current = []

    def recording(what, primes, blocks, solve, exact=None):
        def tagged(p):
            for w, A in blocks(p):
                current[:] = [w]
                yield w, A
        return solve_blocks(what, primes, tagged, solve, exact)

    monkeypatch.setattr(ideals, "_solve_blocks", recording)
    monkeypatch.setattr(linalg, "nullspace_mod", lambda A, q: nullspace(A, q, current[0]))


def test_blocks_without_an_irreducible_are_not_solved(monkeypatch):
    # nullspace_mod sees each block with m_lam > 0 twice (ker D1, then D2 on
    # it), in order, and no other block
    nullspace, seen = linalg.nullspace_mod, []
    _recording_solves(monkeypatch, lambda A, q, w: seen.append(w) or nullspace(A, q))
    skipped = 0
    for deg in range(9):
        seen.clear()
        ideals.highest_weight_bases.__wrapped__(deg, linalg.DEFAULT_PRIMES[1])
        assert seen == [w for w in _solved_weights(deg) for _ in range(2)]
        blocks = ideals.monomials_by_weight(deg)
        skipped += sum(map(ideals.is_dominant, blocks)) - len(_solved_weights(deg))
    assert skipped > 0


def test_a_vector_dropped_from_the_second_stage_raises_and_caches_nothing(monkeypatch):
    # drop one vector of ker(D2 K) in the last block of degree 4, (4, 4, 4):
    # its 25 monomials hold one highest-weight vector inside a larger ker D1.
    # A prime no other test builds a basis for, so the call cannot hit the cache
    p, deg = 999979, 4
    w = _solved_weights(deg)[-1]
    assert w == (4, 4, 4)
    before = ideals.highest_weight_bases.cache_info().currsize
    nullspace, calls, dropped = linalg.nullspace_mod, [], []

    def drop_in_stage_two(A, q, at):
        calls.append(at)
        N = nullspace(A, q)
        if at == w and calls.count(w) == 2:
            dropped.append(N.shape)
            return N[:, :-1]
        return N

    _recording_solves(monkeypatch, drop_in_stage_two)
    with pytest.raises(linalg.UnluckyPrimeError) as err:
        ideals.highest_weight_bases(deg, p)
    assert str(err.value) == ("highest-weight vectors of degree 4: weight block (4, 4, 4) "
                              "has nullity {999979: 0, 'exact': 1} by prime")
    assert dropped[0][0] > dropped[0][1] == 1
    assert ideals.highest_weight_bases.cache_info().currsize == before
    monkeypatch.undo()
    assert len(ideals.highest_weight_bases(deg, p)[w]) == 1


def test_products_mod_p_are_exact_past_one_run():
    # 2000 products of residues near 2^27 sum past 2^63 in one run
    p = 134217689
    rng = np.random.default_rng(0)
    B = rng.integers(p - 1000, p, size=(3, 2000), dtype=np.int64)
    E = rng.integers(p - 1000, p, size=(2000, 4), dtype=np.int64)
    want = [[sum(int(b) * int(e) for b, e in zip(row, col)) % p for col in E.T] for row in B]
    assert ideals._product_mod(B, E, p).tolist() == want


def _reference_hilbert_value(locus, degree, prime=linalg.DEFAULT_PRIMES[0], seed=0):
    """The former ideals.hilbert_value, kept verbatim: the rank of each
    dominant block's n x (n + HILBERT_MARGIN) evaluation matrix, counted once
    for every weight of its orbit."""
    prime = linalg.check_prime(prime)
    blocks = ideals.monomials_by_weight(degree)
    npoints = max(len(ms) for ms in blocks.values()) + ideals.HILBERT_MARGIN
    phival = np.array([loci.sample(locus, (seed, k), prime) for k in range(npoints)],
                      dtype=np.int64).T

    def evaluations(p):
        # row i, column k: the block's i-th monomial at the k-th point
        for w, ms in blocks.items():
            if ideals.is_dominant(w):
                vals = phival[:, :len(ms) + ideals.HILBERT_MARGIN]
                A = np.ones((len(ms), vals.shape[1]), dtype=np.int64)
                for col in np.array(ms, dtype=np.intp).reshape(len(ms), degree).T:
                    A = A * vals[col] % p
                yield w, A

    _, ranks = ideals._solve_blocks(f"H({locus}, {degree})", (prime,), evaluations,
                                    linalg.rank_mod)
    return sum(ideals._fill_orbits(ranks).values())


@pytest.mark.parametrize("lid", loci.LOCI)
def test_hilbert_values_match_the_full_block_reference(lid):
    for seed in (0, 1):
        for ell in range(1, 7):
            assert (ideals.hilbert_value(lid, ell, seed=seed)
                    == _reference_hilbert_value(lid, ell, seed=seed))


def test_degree_8_hilbert_values_at_the_largest_prime():
    # the largest prime below 2^27, where a product of residues nears 2^54
    p = 134217689
    assert linalg.check_prime(p) == p
    for q in range(p + 1, linalg.PRIME_LIMIT):
        with pytest.raises(ValueError, match="not prime"):
            linalg.check_prime(q)
    for lid in loci.LOCI:
        assert ideals.hilbert_value(lid, 8, prime=p) == resolution.hilbert_from_numerator(lid, 8)


def test_hilbert_values_are_lower_bounds(monkeypatch):
    # at one repeated point every rank is at most 1: the values can fall,
    # never rise.  Below degree 5 every highest-weight space has dimension 1,
    # so one point of the locus still gives every value; at degree 5 the
    # block (9, 4, 2) has two, and tact and empty keep both in R/I
    p = linalg.DEFAULT_PRIMES[0]
    point = {lid: loci.sample(lid, (0, 0), p) for lid in loci.LOCI}
    monkeypatch.setattr(loci, "sample", lambda locus, seed, q=None: point[locus])
    gaps = {(lid, ell): resolution.hilbert_from_numerator(lid, ell)
            - ideals.hilbert_value(lid, ell, prime=p) for lid in loci.LOCI for ell in range(1, 6)}
    assert min(gaps.values()) >= 0
    assert {k for k, gap in gaps.items() if gap} == {("tact", 5), ("empty", 5)}


# ---------------------------------------------------------------------------
# exact concomitant membership
# ---------------------------------------------------------------------------

def _reference_residue(x, p):
    """The rational x reduced mod p; ValueError if p divides its denominator."""
    x = Fraction(x)
    if x.denominator % p == 0:
        raise ValueError(f"coefficient {x} has no residue mod {p}")
    return x.numerator * pow(x.denominator, -1, p) % p


def _reference_isotypic_match(name, locus, degree, primes=linalg.DEFAULT_PRIMES):
    """The former ideals.isotypic_match, kept verbatim but for reading the
    bases of _reference_kernel_bases: every tableau coefficient's dominant
    block vectors, reduced mod p, tested against the row span of the mod-p
    kernel basis of their block, over every prime."""
    gp = ideals.graded_kernel(locus, degree, primes)
    bases = _reference_kernel_bases(locus, degree, gp.primes)
    coeffs, tabs = ideals.concomitant_coefficients(name)
    vectors = [(w, vec) for f in coeffs if f
               for w, vec in ideals.poly_to_block_vectors(f, degree).items()
               if ideals.is_dominant(w)]
    for p in gp.primes:
        for w, vec in vectors:
            v = np.array([_reference_residue(x, p) for x in vec], dtype=np.int64)
            # a zero block has no basis rows
            B = bases[p].get(w, np.zeros((0, len(v)), dtype=np.int64))
            if not linalg.in_rowspan_mod(B, v, p):
                return False
    return True


# the verify-all pairs, the two y pairs, and four pairs that are not members
MEMBERSHIP_CASES = [*cli.CONCOMITANT_LOCI, ("Phi303", "y", 3), ("Phi330", "y", 3),
                    ("Phi330", "delta", 3), ("Phi222", "neq", 2), ("Phi406", "delta", 4),
                    ("Phi441", "tact", 4)]


@pytest.mark.parametrize("name,lid,deg", MEMBERSHIP_CASES,
                         ids=[f"{n}-{lid}" for n, lid, _ in MEMBERSHIP_CASES])
def test_isotypic_match_agrees_with_the_modular_reference(name, lid, deg):
    member = ideals.isotypic_match(name, lid)
    assert member == _reference_isotypic_match(name, lid, deg)
    assert member == ((name, lid, deg) in cli.CONCOMITANT_LOCI or lid == "y")


def _source(c):
    """The coefficient of x1^dx u3^du in a concomitant of type (d, dx, du)."""
    _, dx, du = c.ctype.as_tuple()
    key = monomial([("x1", dx), ("u3", du)])
    return key, c.poly.collect({"x", "u"})[key]


@pytest.mark.parametrize("name", sorted(n for n in brackets.CATALOG if n.startswith("Phi")))
def test_source_coefficient_is_the_top_tableau_coefficient(name, monkeypatch):
    # h is f_T0 on T0 = (2^dx 3^du | 3^dx), and mod p it is a highest-weight vector;
    # isotypic_match reads the same h as Poly.collect does
    c = brackets.catalog_concomitant(name)
    d, dx, du = c.ctype.as_tuple()
    _, h = _source(c)
    coeffs, tabs, _ = tableaux.harmonic_project(c.poly)
    assert h == coeffs[tabs.index(((2,) * dx + (3,) * du, (3,) * dx))]
    assert all(type(x) is int for x in h.terms.values())
    ((w, vec),) = ideals.poly_to_block_vectors(h, d).items()
    p = linalg.DEFAULT_PRIMES[0]
    assert linalg.in_rowspan_mod(ideals.highest_weight_bases(d, p)[w],
                                 np.array(vec, dtype=object) % p, p)
    split, read = ideals.poly_to_block_vectors, []
    monkeypatch.setattr(ideals, "poly_to_block_vectors", lambda f, deg: read.append(f) or split(f, deg))
    ideals.isotypic_match(name, "equiv")
    assert read == [h]


def _patched_source(monkeypatch, name, change):
    """Patch brackets.catalog_concomitant so that `name`'s x1^dx u3^du
    coefficient h becomes change(h)."""
    c = brackets.catalog_concomitant(name)
    key, h = _source(c)
    poly = Poly([*((mo, x) for mo, x in c.poly.terms.items()
                   if tuple(ve for ve in mo if ve[0][0] in "xu") != key),
                 *((monomial(mo + key), x) for mo, x in change(h).terms.items())])
    catalog = brackets.catalog_concomitant
    monkeypatch.setattr(brackets, "catalog_concomitant",
                        lambda n: brackets.Concomitant(poly, c.ctype) if n == name
                        else catalog(n))


def test_a_perturbed_source_coefficient_is_not_a_member(monkeypatch):
    assert ideals.isotypic_match("Phi814", "empty")
    _patched_source(monkeypatch, "Phi814",
                    lambda h: h + Poly({next(iter(h.terms)): 1}))
    assert not ideals.isotypic_match("Phi814", "empty")


def test_a_zero_source_coefficient_raises(monkeypatch):
    _patched_source(monkeypatch, "Phi222", lambda h: Poly())
    with pytest.raises(ValueError, match="zero x1\\^2 u3\\^2 coefficient"):
        ideals.isotypic_match("Phi222", "equiv")


def test_isotypic_match_eliminates_nothing(monkeypatch):
    # no modular elimination, kernel, harmonic projection or Fraction
    def fail(*args, **kwargs):
        pytest.fail("isotypic_match left the exact integer route")

    for fn in ("rank_mod", "nullspace_mod", "nullity_mod", "in_rowspan_mod"):
        monkeypatch.setattr(linalg, fn, fail)
    monkeypatch.setattr(tableaux, "harmonic_project", fail)
    monkeypatch.setattr(ideals, "graded_kernel", fail)
    assert "Fraction" not in vars(ideals)
    for name, lid, _ in cli.CONCOMITANT_LOCI:
        assert ideals.isotypic_match(name, lid)


def test_isotypic_match_builds_one_image_block(monkeypatch):
    # only the block of h's weight is built, not every dominant block
    image_blocks, asked = ideals._image_blocks, []
    monkeypatch.setattr(ideals, "_image_blocks", lambda locus, d, weights:
                        asked.append(list(weights)) or image_blocks(locus, d, weights))
    for name, lid, deg in cli.CONCOMITANT_LOCI:
        asked.clear()
        assert ideals.isotypic_match(name, lid)
        (w,) = ideals.poly_to_block_vectors(_source(brackets.catalog_concomitant(name))[1], deg)
        assert asked == [[w]]


# ---------------------------------------------------------------------------
# kernel multiplicities on highest-weight vectors
# ---------------------------------------------------------------------------

def _reference_graded_kernel(locus, degree, primes=linalg.DEFAULT_PRIMES):
    """The former ideals.graded_kernel, kept verbatim but for returning the
    block nullities: every dominant image block eliminated by nullspace_mod
    modulo every prime, and every other block filled from its S3 orbit."""
    primes = linalg.check_primes(primes)
    images = ideals._image_blocks(locus, degree, _dominant_weights(degree))
    _, dominant = ideals._solve_blocks(
        f"kernel of {locus} degree {degree}", primes, lambda p: ideals._blocks_mod(images, p),
        lambda A, p: linalg.nullspace_mod(A, p).T.copy())
    return ideals._fill_orbits(dominant)


KERNEL_REFERENCE_CASES = [(lid, deg) for lid, deg, _, _ in cli.KERNEL_ANCHORS] + [
    ("neq", 4), ("y", 4), ("delta", 5), ("empty", 6), ("tact", 6), ("empty", 7)]


@pytest.mark.parametrize("primes", [linalg.DEFAULT_PRIMES, (65537, 1048573)],
                         ids=["default", "65537-1048573"])
@pytest.mark.parametrize("lid,deg", KERNEL_REFERENCE_CASES,
                         ids=[f"{lid}-{deg}" for lid, deg in KERNEL_REFERENCE_CASES])
def test_graded_kernel_matches_the_block_elimination_reference(lid, deg, primes):
    gp = ideals.graded_kernel(lid, deg, primes)
    reference = _reference_graded_kernel(lid, deg, primes)
    assert gp.block_nullities == reference
    assert gp.decomposition == decompose(Character(reference))


def test_kernel_dimensions_eliminate_nothing(monkeypatch, pieces):
    # given the highest-weight bases, a piece takes one image build, one
    # _solve_blocks call and one nullspace of an n x m_lam product per
    # irreducible and prime, built only for the blocks with m_lam > 0, and no
    # other elimination: no image block is eliminated for its kernel
    expected = {(lid, deg): _reference_graded_kernel(lid, deg, PRIMES)
                for lid, deg in (("tact", 5), ("empty", 6))}
    rows = {(lid, deg): [shape[0] for shape, *_ in
                         ideals._image_blocks(lid, deg, _solved_weights(deg)).values()]
            for lid, deg in expected}
    for deg in (5, 6):
        for p in PRIMES:
            ideals.highest_weight_bases(deg, p)
    for fn in ("nullity_mod", "rank_mod", "rowbasis_mod"):
        monkeypatch.setattr(linalg, fn, lambda *a: pytest.fail("eliminated past the products"))
    nullspace, image_blocks = linalg.nullspace_mod, ideals._image_blocks
    solve_blocks, shapes, asked, solves = ideals._solve_blocks, [], [], []
    monkeypatch.setattr(linalg, "nullspace_mod", lambda A, p: shapes.append(A.shape)
                        or nullspace(A, p))
    monkeypatch.setattr(ideals, "_image_blocks", lambda locus, d, weights:
                        asked.append(list(weights)) or image_blocks(locus, d, weights))
    monkeypatch.setattr(ideals, "_solve_blocks", lambda what, *a, **k:
                        solves.append(what) or solve_blocks(what, *a, **k))
    for (lid, deg), reference in expected.items():
        shapes.clear()
        asked.clear()
        solves.clear()
        gp = ideals.graded_kernel(lid, deg, PRIMES)
        assert gp.block_nullities == reference
        assert gp.dimension() == math.comb(deg + 9, 9) - resolution.hilbert_from_numerator(lid, deg)
        assert gp.decomposition == decompose(Character(reference))
        weights = _solved_weights(deg)
        assert asked == [weights] and solves == [f"kernel of {lid} degree {deg}"]
        mults = ideals._highest_weights(deg)
        assert list(mults) == weights and max(mults.values()) <= 4
        assert shapes == [(n, mults[w]) for w, n in zip(weights, rows[(lid, deg)])] * len(PRIMES)
        # the kernel of each product holds the piece's highest-weight vectors
        for p in PRIMES:
            assert list(gp.tops[p]) == weights
            assert ({(w[0] - w[2], w[1] - w[2]): len(T) for w, T in gp.tops[p].items() if len(T)}
                    == dict(gp.decomposition))
    assert len(pieces) == 2 and all("bases" not in vars(gp) for gp in pieces.values())
    assert ideals.graded_kernel("tact", 5, PRIMES).decomposition == [((3, 3), 1), ((3, 0), 1)]


# ---------------------------------------------------------------------------
# kernel bases lowered from the highest-weight kernel vectors
# ---------------------------------------------------------------------------

def _reference_transport(degree, d, w):
    """The former ideals._transport, kept verbatim: positions in block w of
    the images of block d's monomials, in order.  The permutation of x1, x2,
    x3 that takes weight d to w permutes the a_r without scalars and maps
    block d onto block w."""
    blocks, index = ideals.monomials_by_weight(degree), _positions(degree)
    sigma = next(s for s in itertools.permutations(range(3)) if tuple(d[i] for i in s) == w)
    amap = [A_INDEX[tuple(A_EXPS[r][i] for i in sigma)] for r in range(10)]
    iw = index[w]
    return [iw[tuple(sorted(amap[r] for r in m))] for m in blocks[d]]


@functools.lru_cache(maxsize=None)
def _reference_kernel_bases(locus, degree, primes):
    """The former GradedPiece.dominant_bases and bases, kept verbatim but for
    returning {prime: {weight: basis rows}} of the nonzero blocks: every
    dominant image block eliminated by nullspace_mod modulo every prime,
    checked against graded_kernel's block nullities, and every other block
    given its dominant block's basis with the a-indices permuted (basis
    transport).  Cached: the callers only read the arrays."""
    gp = ideals.graded_kernel(locus, degree, primes)
    dominant = _dominant_weights(degree)
    images = ideals._image_blocks(locus, degree, dominant)
    results, _ = ideals._solve_blocks(
        f"kernel bases of {locus} degree {degree}", gp.primes,
        lambda p: ideals._blocks_mod(images, p),
        lambda A, p: linalg.nullspace_mod(A, p).T.copy(),
        exact={w: gp.block_nullities.get(w, 0) for w in dominant})
    out = {}
    for p, bases in results.items():
        out[p] = {}
        for d, B in bases.items():
            if not len(B):
                continue
            for w in sorted(set(itertools.permutations(d))):
                Bw = np.empty_like(B)
                Bw[:, _reference_transport(degree, d, w)] = B
                out[p][w] = Bw
    return out


@pytest.mark.parametrize("primes", [linalg.DEFAULT_PRIMES, (65537, 1048573)],
                         ids=["default", "65537-1048573"])
@pytest.mark.parametrize("lid,deg", KERNEL_REFERENCE_CASES,
                         ids=[f"{lid}-{deg}" for lid, deg in KERNEL_REFERENCE_CASES])
def test_lowered_bases_span_the_eliminated_kernels(lid, deg, primes):
    # the same rows in every nonzero block, and byte for byte the same
    # reduced basis in every dominant one
    gp = ideals.graded_kernel(lid, deg, primes)
    reference = _reference_kernel_bases(lid, deg, primes)
    assert list(gp.bases) == list(reference) == list(primes)
    for p, bases in gp.bases.items():
        assert sorted(bases) == sorted(reference[p]) == sorted(gp.block_nullities)
        for w, B in bases.items():
            R = reference[p][w]
            assert B.dtype == R.dtype and B.shape == R.shape
            assert linalg.rank_mod(np.vstack([B, R]), p) == len(R) == linalg.rank_mod(B, p)
            if ideals.is_dominant(w):
                assert B.tobytes() == R.tobytes()


@pytest.mark.parametrize("lid,deg", [("tact", 5), ("delta", 4), ("empty", 8)])
def test_a_bases_read_eliminates_only_the_highest_weight_products(lid, deg, monkeypatch,
                                                                  pieces):
    # graded_kernel has eliminated the m_lam-column products; a read only
    # lowers their kernel vectors: one _solve_blocks call, no image block, no
    # kernel or nullity elimination, and one row basis per nonzero block and
    # prime, a structural guard on the degree-8 read rather than a timer
    gp = ideals.graded_kernel(lid, deg, PRIMES)
    monkeypatch.setattr(ideals, "_image_blocks", lambda *a: pytest.fail("built an image"))
    for fn in ("nullspace_mod", "nullity_mod", "rank_mod"):
        monkeypatch.setattr(linalg, fn, lambda *a: pytest.fail("eliminated a kernel"))
    rowbasis, solve_blocks, seen, solves = linalg.rowbasis_mod, ideals._solve_blocks, [], []
    monkeypatch.setattr(linalg, "rowbasis_mod", lambda A, q: seen.append(q) or rowbasis(A, q))
    monkeypatch.setattr(ideals, "_solve_blocks", lambda what, *a, **k:
                        solves.append(what) or solve_blocks(what, *a, **k))
    for p in PRIMES:
        assert {w: len(B) for w, B in gp.bases[p].items()} == gp.block_nullities
    assert solves == [f"kernel bases of {lid} degree {deg}"]
    assert seen == [p for p in PRIMES for _ in gp.block_nullities]
    seen.clear()
    assert ideals.graded_kernel(lid, deg, PRIMES).bases and seen == []


def test_repeated_primes_are_eliminated_once(monkeypatch, pieces):
    # (65537, 65537) used to eliminate every block twice; a piece eliminates
    # the product of each of delta-4's irreducibles once per distinct prime,
    # and a basis read reduces each nonzero block once per distinct prime
    for p in PRIMES:
        ideals.highest_weight_bases(4, p)
    nullspace, rowbasis = linalg.nullspace_mod, linalg.rowbasis_mod
    calls = []
    monkeypatch.setattr(linalg, "nullspace_mod",
                        lambda A, p: calls.append(("nullspace", p)) or nullspace(A, p))
    monkeypatch.setattr(linalg, "rowbasis_mod",
                        lambda A, p: calls.append(("rowbasis", p)) or rowbasis(A, p))
    counts = {}
    for primes in ((65537,), (65537, 65537), (1000003, 65537, 1000003)):
        pieces.clear()
        calls.clear()
        gp = ideals.graded_kernel("delta", 4, primes)
        assert gp.bases
        counts[primes] = (calls.count(("nullspace", 65537)), len(calls))
        assert gp.primes == tuple(dict.fromkeys(primes))
    tops = pieces[("delta", 4, (1000003, 65537))].tops
    assert all({w: len(T) for w, T in t.items() if len(T)} == {(7, 3, 2): 1}
               for t in tops.values())
    # 10 irreducibles in R_4 and 25 nonzero blocks, per distinct prime
    assert (len(ideals._highest_weights(4)), len(gp.block_nullities)) == (10, 25)
    assert counts == {(65537,): (10, 35), (65537, 65537): (10, 35),
                      (1000003, 65537, 1000003): (10, 70)}


def test_a_basis_vector_dropped_at_one_prime_raises_and_caches_nothing(monkeypatch, pieces):
    # drop one row of the last block the walk reduces at the second prime, a
    # block of lowered vectors only, at the bottom of 2 w0 + w1; the piece
    # keeps its highest-weight kernel vectors as they were
    gp = ideals.graded_kernel("delta", 4, PRIMES)
    tops = {p: {w: T.tobytes() for w, T in t.items()} for p, t in gp.tops.items()}
    rowbasis, calls, dropped = linalg.rowbasis_mod, [], []

    def drop_one(A, q):
        B = rowbasis(A, q)
        calls.append(q)
        if calls.count(PRIMES[1]) == len(gp.block_nullities) and q == PRIMES[1]:
            dropped.append(B.shape)
            return B[:-1]
        return B

    monkeypatch.setattr(linalg, "rowbasis_mod", drop_one)
    with pytest.raises(linalg.UnluckyPrimeError) as err:
        gp.bases
    got = re.fullmatch(r"kernel bases of delta degree 4: weight block \((\d+), (\d+), (\d+)\) "
                       r"has nullity \{1000003: (\d+), 65537: (\d+), 'exact': (\d+)\} by prime",
                       str(err.value))
    assert got, str(err.value)
    w = tuple(int(x) for x in got.groups()[:3])
    n = gp.block_nullities[w]
    assert [int(x) for x in got.groups()[3:]] == [n, n - 1, n]
    assert dropped == [(n, len(ideals.monomials_by_weight(4)[w]))]
    assert 2 * w[0] + w[1] == min(2 * u[0] + u[1] for u in gp.block_nullities)
    assert list(pieces.values()) == [gp] and "bases" not in vars(gp)
    assert {p: {w: T.tobytes() for w, T in t.items()} for p, t in gp.tops.items()} == tops
    monkeypatch.undo()
    assert len(gp.bases[PRIMES[1]][w]) == n


# ---------------------------------------------------------------------------
# syzygies without the monomials of the next degree
# ---------------------------------------------------------------------------

def _reference_syzygy_nullities(locus, degree, primes):
    """The former ideals.syzygy_kernel, kept verbatim but for reading the
    index dicts of _positions and returning the dominant nullities: every
    block of R_{degree+1} listed, and each product g_i a_r placed in its
    block by a {monomial: position} dict."""
    idx_up = _positions(degree + 1)
    gp = ideals.graded_kernel(locus, degree, primes)

    def blocks(p):
        # columns of the syzygy system: for each g_i and r, the vector of
        # g_i * a_r in the block of its weight
        basis = gp.bases[p]
        parts = {}          # dominant weight -> [(row positions, generator rows)]
        for w in sorted(basis):
            monos, B = ideals.monomials_by_weight(degree)[w], basis[w]
            for r in range(10):
                e = A_EXPS[r]
                wr = (w[0] + e[0], w[1] + e[1], w[2] + e[2])
                if ideals.is_dominant(wr):
                    up = idx_up[wr]
                    rows = [up[tuple(sorted(m + (r,)))] for m in monos]
                    parts.setdefault(wr, []).append((rows, B))
        for wr, cols in parts.items():
            A = np.zeros((len(idx_up[wr]), sum(len(B) for _, B in cols)), dtype=np.int64)
            j = 0
            for rows, B in cols:
                A[rows, j:j + len(B)] = B.T
                j += len(B)
            yield wr, A

    _, dominant = ideals._solve_blocks(f"syzygies of {locus} degree {degree}", gp.primes,
                                       blocks, linalg.nullity_mod)
    return dominant


SYZYGY_REFERENCE_CASES = [(lid, deg) for lid, deg, _, _ in cli.SYZYGY_ANCHORS] + [
    ("tact", 5), ("neq", 4)]


@pytest.mark.parametrize("primes", [linalg.DEFAULT_PRIMES, (65537, 1048573)],
                         ids=["default", "65537-1048573"])
@pytest.mark.parametrize("lid,deg", SYZYGY_REFERENCE_CASES,
                         ids=[f"{lid}-{deg}" for lid, deg in SYZYGY_REFERENCE_CASES])
def test_syzygies_match_the_dict_index_reference(lid, deg, primes):
    sp = ideals.syzygy_kernel(lid, deg, primes)
    dominant = {w: n for w, n in sp.block_nullities.items() if ideals.is_dominant(w)}
    assert dominant == _reference_syzygy_nullities(lid, deg, primes)


def test_syzygies_list_no_monomials_of_the_next_degree(monkeypatch, pieces):
    # the rows of each block are the codes of the products g_i a_r; the list
    # of degree-5 monomials is never asked for, not even from the lru cache
    listed = ideals.monomials_by_weight

    def refuse_degree_5(degree):
        if degree == 5:
            pytest.fail("listed the monomials of degree 5")
        return listed(degree)

    monkeypatch.setattr(ideals, "monomials_by_weight", refuse_degree_5)
    sp = ideals.syzygy_kernel("delta", 4, PRIMES)
    assert (sp.dimension(), sp.decomposition) == (119, [((6, 3), 1), ((6, 0), 1), ((4, 2), 1)])
    assert "bases" in vars(pieces[("delta", 4, PRIMES)])
