"""Graded kernels, Hilbert values, syzygies, and concomitant membership."""

import ast
import hashlib
import itertools
import math
import os
import random
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from ternary_cubics import brackets, ideals, linalg, loci, resolution
from ternary_cubics.characters import dim_irrep

PRIMES = (1000003, 65537)
SRC = Path(__file__).resolve().parents[1] / "src"


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
    # the packed weights against weights summed one monomial at a time, with
    # the blocks and their monomials in lexicographic order
    for degree in range(10):
        ref = {}
        for m in itertools.combinations_with_replacement(range(10), degree):
            ref.setdefault(tuple(sum(A_EXPS[r][i] for r in m) for i in range(3)), []).append(m)
        assert list(ideals.monomials_by_weight(degree)[0].items()) == list(ref.items())


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


def test_isotypic_match_reduces_fractions_exactly(monkeypatch):
    # scaling the coefficients keeps their span over Q; a residue taken by
    # truncating each Fraction to an int would not
    coeffs, tabs = ideals.concomitant_coefficients("Phi222")
    for scale in (Fraction(1, 3), Fraction(1, 2)):
        monkeypatch.setattr(ideals, "concomitant_coefficients",
                            lambda name, s=scale: ([f * s for f in coeffs], tabs))
        assert ideals.isotypic_match("Phi222", "equiv", 2, primes=(1000003,))
    monkeypatch.setattr(ideals, "concomitant_coefficients",
                        lambda name: ([f * Fraction(1, 1000003) for f in coeffs], tabs))
    with pytest.raises(ValueError, match="mod 1000003"):
        ideals.isotypic_match("Phi222", "equiv", 2, primes=(1000003,))


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


def test_rejected_kernel_calls_leave_no_cache_entry(monkeypatch):
    monkeypatch.setattr(ideals, "_KERNEL_CACHE", {})
    for locus, degree in (("bogus", 2), ("equiv", -1)):
        with pytest.raises(ValueError):
            ideals.graded_kernel(locus, degree, primes=PRIMES)
    assert ideals._KERNEL_CACHE == {}


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
    assert ideals.full_block_nullities(lid, deg, PRIMES) == gp.block_nullities


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
    matrices = dict(ideals._blocks_mod(ideals._image_blocks(lid, deg, dominant_only=False), p))
    moved = [w for w in basis if not ideals.is_dominant(w)]
    assert moved
    for w in moved:
        monos, B = basis[w]
        A = matrices[w]
        assert monos == ideals.monomials_by_weight(deg)[0][w]
        assert not np.any((A @ B.T) % p)
        assert linalg.rank_mod(B, p) == len(B)


# SHA-256 over the kernel basis bytes, primes and weights in sorted order.
# A reduced echelon basis is unique for a fixed column order, so a change to
# the elimination must leave these digests as they are.
KERNEL_BASIS_DIGESTS = {
    ("tact", 5): "9e7c235897c517912413438cb18d73aca006d02f737948cef088181fe19c7b14",
    ("delta", 4): "b6259d8da99ac7c6c4ddda72ffec2678263ee9e0f729180823a394d8d2505c41",
    ("neq", 4): "a492d7d7e5f7dbab7a45fea5c7aad6ae72743e9addf8e3453dc00cf13cf36898",
}


@pytest.mark.parametrize("lid,deg", sorted(KERNEL_BASIS_DIGESTS))
def test_kernel_bases_are_pinned(lid, deg, monkeypatch):
    monkeypatch.setattr(ideals, "_KERNEL_CACHE", {})
    gp = ideals.graded_kernel(lid, deg)
    assert sorted(gp.bases) == sorted(linalg.DEFAULT_PRIMES)
    h = hashlib.sha256()
    for p in sorted(gp.bases):
        for w in sorted(gp.bases[p]):
            h.update(gp.bases[p][w][1].tobytes())
    assert h.hexdigest() == KERNEL_BASIS_DIGESTS[(lid, deg)]


def test_graded_kernel_walks_the_tree_once_for_all_primes(monkeypatch):
    ideals._dominant_prefixes(4)      # warm the cached monomial lists
    monkeypatch.setattr(ideals, "_KERNEL_CACHE", {})
    image_blocks = ideals._image_blocks
    calls = []

    def counting_walk(locus, degree, *args, **kwargs):
        calls.append(degree)
        return image_blocks(locus, degree, *args, **kwargs)

    monkeypatch.setattr(ideals, "_image_blocks", counting_walk)
    gp = ideals.graded_kernel("delta", 4, primes=PRIMES)
    assert calls == [4]
    assert gp.dimension() == 35 and set(gp.bases) == set(PRIMES)


def test_walk_prunes_to_dominant_blocks():
    blocks, _ = ideals.monomials_by_weight(5)
    dominant = [w for w in blocks if ideals.is_dominant(w)]
    assert list(ideals._image_blocks("delta", 5)) == dominant and len(dominant) == 27
    assert list(ideals._image_blocks("delta", 5, dominant_only=False)) == list(blocks)
    assert len(blocks) == 136


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


def test_kernel_disagreement_names_the_block(monkeypatch):
    monkeypatch.setattr(ideals, "_KERNEL_CACHE", {})
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
    for compute, what in ((ideals.syzygy_kernel, "syzygies"),
                          (ideals.full_block_nullities, "all blocks")):
        with pytest.raises(linalg.UnluckyPrimeError,
                           match=rf"{what} of equiv degree 2: weight block "
                                 r"\(\d+, \d+, \d+\) has nullity \{1000003: \d+, 65537: \d+\}"):
            compute("equiv", 2, PRIMES)


def test_weyl_orbit_check_reports_the_disagreeing_block(monkeypatch):
    nullity = linalg.nullity_mod
    monkeypatch.setattr(linalg, "nullity_mod",
                        lambda A, p: nullity(A, p) + (p == 65537))
    monkeypatch.setattr(cli, "build_checks",
                        lambda: [("weyl-orbits-delta-5", cli._check_weyl_orbits("delta", 5))])
    config = {"primes": PRIMES, "seed": 0, "lmax": 1, "timings": False}
    (check,) = cli.run_verify_all(config)["checks"]
    assert check["status"] == "fail"
    assert re.fullmatch(r"unlucky prime: all blocks of delta degree 5: weight block "
                        r"\(\d+, \d+, \d+\) has nullity \{1000003: \d+, 65537: \d+\} "
                        r"by prime", check["actual"])


@pytest.mark.parametrize("compute", [
    ideals.graded_kernel, ideals.syzygy_kernel, ideals.full_block_nullities,
    lambda locus, degree, primes: ideals.isotypic_match("Phi222", locus, degree, primes),
], ids=["graded_kernel", "syzygy_kernel", "full_block_nullities", "isotypic_match"])
def test_empty_prime_sets_are_rejected(compute, monkeypatch):
    # no prime used to fail on an empty list index, or to agree vacuously
    monkeypatch.setattr(ideals, "_KERNEL_CACHE", {})
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


def test_repeated_primes_are_eliminated_once(monkeypatch):
    # (65537, 65537) used to eliminate every block twice
    nullspace = linalg.nullspace_mod
    calls = []
    monkeypatch.setattr(linalg, "nullspace_mod",
                        lambda A, p: calls.append(p) or nullspace(A, p))
    counts = {}
    for primes in ((65537,), (65537, 65537), (1000003, 65537, 1000003)):
        monkeypatch.setattr(ideals, "_KERNEL_CACHE", {})
        calls.clear()
        gp = ideals.graded_kernel("delta", 4, primes)
        counts[primes] = len(calls)
        assert gp.primes == tuple(dict.fromkeys(primes))
    assert counts == {(65537,): 19, (65537, 65537): 19, (1000003, 65537, 1000003): 38}


@pytest.mark.parametrize("lid", loci.LOCI)
def test_hilbert_blocks_are_point_evaluations(lid, monkeypatch):
    # row i, column k of a block is its i-th monomial at the k-th sample point
    p, deg = linalg.DEFAULT_PRIMES[0], 3
    rank = linalg.rank_mod
    seen = []
    monkeypatch.setattr(linalg, "rank_mod", lambda A, q: seen.append(A.copy()) or rank(A, q))
    ideals.hilbert_value(lid, deg, seed=0)
    blocks, _ = ideals.monomials_by_weight(deg)
    dominant = [w for w in blocks if ideals.is_dominant(w)]
    assert len(seen) == len(dominant)
    phi = loci.substitution_map(lid).phi
    points = {}
    for w, A in zip(dominant, seen):
        monos = blocks[w]
        assert A.shape == (len(monos), len(monos) + ideals.HILBERT_MARGIN)
        for k in range(A.shape[1]):
            if k not in points:
                params = loci.sample_params(lid, random.Random(repr((0, k))), p)
                points[k] = [phi_r.evaluate(params, p) for phi_r in phi]
            assert A[:, k].tolist() == [math.prod(points[k][r] for r in m) % p for m in monos]


def test_hilbert_points_are_drawn_once(monkeypatch):
    # H(locus, 1..6) reads the first 103 + HILBERT_MARGIN points of one
    # sequence; every degree shares them, so each is drawn once
    draw = loci.sample_params
    draws = []
    monkeypatch.setattr(loci, "sample_params", lambda *a: draws.append(a[0]) or draw(*a))
    loci.sample.cache_clear()
    for lid in loci.LOCI:
        assert all(r["ok"] for r in resolution.hilbert_consistency(lid, 6, seed=0))
    assert [draws.count(lid) for lid in loci.LOCI] == [115] * len(loci.LOCI)


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
    # the monomial lists come from one enumeration, and only the image build
    # walks the tree, pruned to dominant prefixes
    tree = ast.parse((SRC / "ternary_cubics" / "ideals.py").read_text())

    def owners(match):
        return {getattr(top, "name", "<module>") for top in tree.body
                for node in ast.walk(top) if match(node)}

    assert owners(lambda n: isinstance(n, ast.Call)
                  and "combinations_with_replacement" in ast.unparse(n.func)) \
        == {"monomials_by_weight"}
    assert owners(lambda n: isinstance(n, ast.Name) and n.id == "_dominant_prefixes"
                  and isinstance(n.ctx, ast.Load)) == {"_image_blocks"}
    assert owners(lambda n: isinstance(n, ast.While)) == {"_image_blocks"}


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
