"""Graded pieces of the defining ideals of the six loci.

The degree-j piece of the ideal of a locus is the kernel of the substitution
map R_j -> k[params]: send each degree-j monomial in a0..a9 to its image under
a_r -> phi_r(params).  The map preserves torus weight, so the kernel splits
into weight blocks; each block is a small exact nullspace mod p, and the block
nullities assemble into the character of the graded piece.

Every locus is GL3-stable.  Permuting x1, x2, x3 permutes the a_r without
scalars and maps the block of weight w onto the block of the permuted weight,
kernel onto kernel.  So only the dominant blocks (w0 >= w1 >= w2) are
eliminated, and every other block is filled from its S3 orbit: its nullity is
that of its dominant block, and its kernel basis, when asked for, is the
dominant basis with the a-indices permuted (basis transport), never a second
elimination.  The verify-all check weyl-orbits-delta-5 eliminates every block
of one kernel and confirms that nullity is constant on each orbit.

Monomials in the a-variables are nondecreasing index tuples (a0 a0 a3 =
(0, 0, 3)), listed once per degree by monomials_by_weight; every block of
every kind is indexed by those cached lists.  Only the substitution images
share work along the tree of monomials (a child appends an index >= the last
one and multiplies its parent's image by one phi_r): _image_blocks builds
them depth first, entering only prefixes of dominant-weight monomials.  They
are exact integers, built once for all the primes of a kernel, so no
coefficient meets int64 before it is reduced mod p.

Every weight-blocked elimination (kernels, syzygies, the all-block
cross-check, Hilbert values) takes one path, _solve_blocks: for each prime it
builds the blocks one at a time and hands each to one linalg entry, then
compares the primes.  It is the one place here that compares primes; a
disagreement raises UnluckyPrimeError naming the weight block and its count
modulo each prime.

Hilbert function values come from evaluation instead: the rank of the matrix
of monomial values at random points of the locus, on each dominant block,
counted once per weight of its orbit.  The points are the cubics of the
memoized loci.sample, so one seeded point sequence is drawn once and shared
by every degree.  Each block's matrix is built from its monomial list at its
own n + HILBERT_MARGIN points, so no value is computed that the rank does
not read.

Syzygies among the degree-j generators are the kernel of the multiplication
map (generators) x (linear forms) -> R_{j+1}; this needs no substitution
images in degree j+1, only monomial bookkeeping, and again only the dominant
blocks of R_{j+1} are eliminated.
"""

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import combinations_with_replacement, permutations

import numpy as np

from . import brackets, linalg, loci, tableaux
from .characters import Character, decompose
from .poly import A_EXPS, A_INDEX, Poly, monomial

_SHIFT = 6  # exponent-vector packing: 6 bits per parameter
HILBERT_MARGIN = 12  # evaluation points past each block's size


# ---------------------------------------------------------------------------
# the monomial tree and its S3 orbits
# ---------------------------------------------------------------------------

@lru_cache(maxsize=16)
def monomials_by_weight(degree):
    """Degree-`degree` monomials in a0..a9 grouped by weight.

    Returns ({weight: [index-tuple, ...]}, {weight: {index-tuple: position}}).
    Tuples are nondecreasing and, within and across blocks, in lexicographic order.
    """
    if degree < 0:
        raise ValueError(f"degree must be at least 0, got {degree}")
    # the weights (w0, w1, 3 degree - w0 - w1) of the monomials, packed as
    # w0 * base + w1 and summed in the same order as the index tuples
    base = 3 * degree + 1
    packed = map(sum, combinations_with_replacement([e[0] * base + e[1] for e in A_EXPS], degree))
    by_key = {}
    for m, k in zip(combinations_with_replacement(range(10), degree), packed):
        by_key.setdefault(k, []).append(m)
    blocks = {(k // base, k % base, 3 * degree - k // base - k % base): ms
              for k, ms in by_key.items()}
    index = {w: {m: i for i, m in enumerate(ms)} for w, ms in blocks.items()}
    return blocks, index


def is_dominant(w):
    return w[0] >= w[1] >= w[2]


def orbit(w):
    """The distinct permutations of a weight, sorted."""
    return sorted(set(permutations(w)))


@lru_cache(maxsize=16)
def _dominant_prefixes(degree):
    """Every prefix of a degree-`degree` monomial of dominant weight."""
    blocks, _ = monomials_by_weight(degree)
    return frozenset(m[:k] for w, ms in blocks.items() if is_dominant(w)
                     for m in ms for k in range(1, degree + 1))


def _fill_orbits(dominant):
    """Extend {dominant weight: value} to every weight of each orbit."""
    return {w: v for d, v in dominant.items() for w in orbit(d)}


@lru_cache(maxsize=4096)
def _transport(degree, d, w):
    """Positions in block w of the images of block d's monomials, in order.

    The permutation of x1, x2, x3 that takes weight d to w permutes the a_r
    without scalars and maps block d onto block w.
    """
    blocks, index = monomials_by_weight(degree)
    sigma = next(s for s in permutations(range(3)) if tuple(d[i] for i in s) == w)
    amap = [A_INDEX[tuple(A_EXPS[r][i] for i in sigma)] for r in range(10)]
    iw = index[w]
    return [iw[tuple(sorted(amap[r] for r in m))] for m in blocks[d]]


def poly_to_block_vectors(pl, degree):
    """Split an a-polynomial into {weight: dense coefficient list} vectors."""
    blocks, index = monomials_by_weight(degree)
    out = {}
    for mo, c in pl.terms.items():
        idxs = []
        for v, e in mo:
            if not v.startswith("a"):
                raise ValueError(f"non-a variable {v} in ideal element")
            idxs.extend([int(v[1:])] * e)
        mono = tuple(sorted(idxs))
        if len(mono) != degree:
            raise ValueError("polynomial not homogeneous of the right degree")
        w = tuple(sum(A_EXPS[r][i] for r in mono) for i in range(3))
        if w not in out:
            out[w] = [0] * len(blocks[w])
        out[w][index[w][mono]] += c
    return out


# ---------------------------------------------------------------------------
# substitution images, depth first
# ---------------------------------------------------------------------------

def _encoded_phi(locus):
    """phi_r as {packed exponent vector: integer coeff}, r = 0..9."""
    spec = loci.substitution_map(locus)
    pidx = {v: i for i, v in enumerate(spec.params)}
    out = []
    for phi in spec.phi:
        d = {}
        for mo, c in phi.terms.items():
            key = 0
            for v, e in mo:
                key += e << (_SHIFT * pidx[v])
            d[key] = int(c)
        out.append(d)
    return out


def _image_blocks(locus, degree, dominant_only=True):
    """Per-weight substitution matrices over Z, transposed for nullspace extraction.

    Returns {weight: (shape, rows, cols, coeffs)} for the dominant weights, or
    for every weight without `dominant_only`: the sparse integer matrix of
    shape (n_param_keys, n_monos), with exact Python-int coefficients, which
    _blocks_mod reduces modulo a prime.  The column space is indexed by the
    block's monomials (in the order of monomials_by_weight), so nullspace
    vectors are ideal elements.  Built depth first, one path in memory.
    """
    phi = _encoded_phi(locus)
    blocks, index = monomials_by_weight(degree)
    keep = _dominant_prefixes(degree) if dominant_only else None
    keyidx = {}    # weight -> {packed param key: row index}
    entries = {}   # weight -> (rows, cols, coeffs) of the nonzero entries
    stack = [((), (0, 0, 0), {0: 1})]
    while stack:
        mono, w, img = stack.pop()
        if len(mono) == degree:
            ki = keyidx.setdefault(w, {})
            rows, cols, coeffs = entries.setdefault(w, ([], [], []))
            j = index[w][mono]
            for k, c in img.items():
                rows.append(ki.setdefault(k, len(ki)))
                cols.append(j)
                coeffs.append(c)
            continue
        # push descending so that the smallest index pops first
        for r in range(9, (mono[-1] if mono else 0) - 1, -1):
            child = mono + (r,)
            if keep is None or child in keep:
                prod = {}
                for k1, c1 in img.items():
                    for k2, c2 in phi[r].items():
                        k = k1 + k2
                        prod[k] = prod.get(k, 0) + c1 * c2
                e = A_EXPS[r]
                stack.append((child, (w[0] + e[0], w[1] + e[1], w[2] + e[2]),
                              {k: c for k, c in prod.items() if c}))
    return {w: ((len(keyidx[w]), len(blocks[w])), *e) for w, e in entries.items()}


def _blocks_mod(images, p):
    """Yield (weight, int64 matrix) of each integer image block, reduced mod p."""
    for w, (shape, rows, cols, coeffs) in images.items():
        A = np.zeros(shape, dtype=np.int64)
        A[rows, cols] = [c % p for c in coeffs]
        yield w, A


# ---------------------------------------------------------------------------
# the one solve path
# ---------------------------------------------------------------------------

def _check_primes(primes):
    """The distinct primes in their given order, each validated by check_prime.

    At least one is needed; a repeated prime would only repeat its work.
    """
    primes = tuple(dict.fromkeys(linalg.check_prime(p) for p in primes))
    if not primes:
        raise ValueError("at least one prime is needed")
    return primes


def _solve_blocks(what, primes, blocks, solve):
    """Solve every block modulo every prime, and check that the primes agree.

    blocks(p) yields (weight, int64 matrix mod p), one block at a time, and
    solve(A, p) is the linalg entry for the job.  Returns
    ({p: {weight: result}}, {weight: count}), where a count is the result
    itself (a rank or a nullity) or its number of rows (a kernel basis), and
    zero counts are left out.  Primes that disagree raise UnluckyPrimeError
    naming the first weight block whose counts differ.
    """
    results, counts = {}, {}
    for p in primes:
        results[p] = {w: solve(A, p) for w, A in blocks(p)}
        n = {w: len(r) if isinstance(r, np.ndarray) else r for w, r in results[p].items()}
        counts[p] = {w: k for w, k in n.items() if k}
    for w in sorted(set().union(*counts.values())):
        got = {p: c.get(w, 0) for p, c in counts.items()}
        if len(set(got.values())) > 1:
            raise linalg.UnluckyPrimeError(
                f"{what}: weight block {w} has nullity {got} by prime")
    return results, counts[primes[0]]


# ---------------------------------------------------------------------------
# graded kernels
# ---------------------------------------------------------------------------

@dataclass
class _Piece:
    """A graded piece: its block nullities, filled over every S3 orbit."""
    locus: str
    degree: int
    primes: tuple
    block_nullities: dict            # weight -> nullity
    decomposition: list = field(init=False)      # [((a, b), mult)]

    def __post_init__(self):
        self.decomposition = decompose(Character(self.block_nullities))

    def dimension(self):
        return sum(self.block_nullities.values())


@dataclass
class GradedPiece(_Piece):
    # prime -> {dominant weight: basis rows}, as cached by graded_kernel
    dominant_bases: dict = field(repr=False, compare=False)

    @cached_property
    def bases(self):
        """prime -> {weight: (monos, basis ndarray)} for every nonzero block.

        Built on first read from the dominant bases by basis transport: a
        non-dominant block's basis is its dominant block's basis with the
        a-indices permuted (see _transport), not a second elimination.  So a
        piece whose bases nobody reads pays nothing for them.
        """
        blocks, _ = monomials_by_weight(self.degree)
        out = {}
        for p, dominant in self.dominant_bases.items():
            out[p] = {}
            for d, B in dominant.items():
                if not len(B):
                    continue
                for w in orbit(d):
                    Bw = np.empty_like(B)
                    Bw[:, _transport(self.degree, d, w)] = B
                    out[p][w] = (blocks[w], Bw)
        return out

    def vanishes_at(self, point, p):
        """Do all kernel basis vectors vanish at the cubic `point` (mod p)?"""
        p = linalg.check_prime(p)
        if p not in self.bases:
            raise ValueError(f"no kernel basis modulo {p}; have {sorted(self.bases)}")
        pv = [int(x) % p for x in point]
        # Python ints: the dot products are exact, whatever their length
        for monos, B in self.bases[p].values():
            vals = np.array([math.prod(pv[r] for r in m) for m in monos], dtype=object)
            if np.any(B.astype(object) @ vals % p):
                return False
        return True


_KERNEL_CACHE = {}   # (locus, degree, primes) -> the result of _solve_blocks


def graded_kernel(locus, degree, primes=linalg.DEFAULT_PRIMES):
    """The degree-`degree` piece of the ideal of `locus`.

    Only the dominant weight blocks are eliminated; every other block has the
    nullity of its dominant block.  Block nullities are computed
    independently modulo every prime in `primes` and must agree; a
    disagreement raises UnluckyPrimeError naming the block.
    """
    primes = _check_primes(primes)
    key = (locus, degree, primes)
    if key not in _KERNEL_CACHE:
        # one image build over Z serves every prime; basis vectors as rows
        # over the block's monomials.  A bad locus or degree raises in the
        # build, and a disagreement in the solve, before anything is stored.
        images = _image_blocks(locus, degree)
        _KERNEL_CACHE[key] = _solve_blocks(
            f"kernel of {locus} degree {degree}", primes, lambda p: _blocks_mod(images, p),
            lambda A, p: linalg.nullspace_mod(A, p).T.copy())
    bases, dominant = _KERNEL_CACHE[key]
    return GradedPiece(locus, degree, primes, _fill_orbits(dominant), bases)


def full_block_nullities(locus, degree, primes):
    """{weight: nullity} of every block, dominant or not, each eliminated.

    The cross-check of the orbit reduction: graded_kernel takes the nullity
    of a non-dominant block from its dominant block instead.  One image
    build over Z serves every prime, and the primes must agree.
    """
    primes = _check_primes(primes)
    images = _image_blocks(locus, degree, dominant_only=False)
    return _solve_blocks(f"all blocks of {locus} degree {degree}", primes,
                         lambda p: _blocks_mod(images, p), linalg.nullity_mod)[1]


# ---------------------------------------------------------------------------
# Hilbert function values by evaluation
# ---------------------------------------------------------------------------

def hilbert_value(locus, degree, prime=linalg.DEFAULT_PRIMES[0], seed=0):
    """H(locus, degree): rank of the monomial evaluation matrix at random points.

    The rank is taken on each dominant block and counted once for every
    weight of its orbit.  The k-th point is the cubic loci.sample(locus,
    (seed, k), prime); sample is memoized, so every degree shares one drawn
    sequence.  A block of n monomials is evaluated, from its list in
    monomials_by_weight, at the first n + HILBERT_MARGIN points and at no
    others, so every block has its own margin of HILBERT_MARGIN points past
    its size.  Monte Carlo (one-sided): the result is a lower bound, equal to
    the true value when the points are generic for every dominant block; the
    margin makes an undercount vanishingly unlikely.
    """
    prime = linalg.check_prime(prime)
    blocks, _ = monomials_by_weight(degree)
    npoints = max(len(ms) for ms in blocks.values()) + HILBERT_MARGIN
    phival = np.array([loci.sample(locus, (seed, k), prime) for k in range(npoints)],
                      dtype=np.int64).T

    def evaluations(p):
        # row i, column k: the block's i-th monomial at the k-th point
        for w, ms in blocks.items():
            if is_dominant(w):
                vals = phival[:, :len(ms) + HILBERT_MARGIN]
                A = np.ones((len(ms), vals.shape[1]), dtype=np.int64)
                for col in np.array(ms, dtype=np.intp).reshape(len(ms), degree).T:
                    A = A * vals[col] % p
                yield w, A

    _, ranks = _solve_blocks(f"H({locus}, {degree})", (prime,), evaluations, linalg.rank_mod)
    return sum(_fill_orbits(ranks).values())


# ---------------------------------------------------------------------------
# syzygies
# ---------------------------------------------------------------------------

@dataclass
class SyzygyPiece(_Piece):
    """The linear syzygies among the generators of degree `degree`."""
    n_generators: int


def syzygy_kernel(locus, degree=None, primes=linalg.DEFAULT_PRIMES):
    """Linear syzygies among the degree-`degree` generators of the ideal.

    The syzygy space is the kernel of (generators) (x) R_1 -> R_{degree+1},
    xi -> sum xi_{i,r} g_i a_r.  Weight-blocked: only the dominant blocks
    are eliminated, each checked over every prime, and the other blocks of
    an orbit take its nullity.
    """
    if degree is None:
        degree = loci.GENERATOR_DEGREES[locus][0]
    gp = graded_kernel(locus, degree, primes)
    _, idx_up = monomials_by_weight(degree + 1)

    def blocks(p):
        # columns of the syzygy system: for each g_i and r, the vector of
        # g_i * a_r in the block of its weight
        basis = gp.bases[p]
        parts = {}          # dominant weight -> [(row positions, generator rows)]
        for w in sorted(basis):
            monos, B = basis[w]
            for r in range(10):
                e = A_EXPS[r]
                wr = (w[0] + e[0], w[1] + e[1], w[2] + e[2])
                if is_dominant(wr):
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

    _, dominant = _solve_blocks(f"syzygies of {locus} degree {degree}", gp.primes,
                                blocks, linalg.nullity_mod)
    return SyzygyPiece(locus, degree, gp.primes, _fill_orbits(dominant), gp.dimension())


# ---------------------------------------------------------------------------
# concomitants versus kernels
# ---------------------------------------------------------------------------

def concomitant_coefficients(name):
    """Coefficients of a catalog concomitant on its tableau basis.

    Returns (coeffs, tableaux): Polys in the a-variables (and y, v for the
    syzygy concomitants), one per tableau of the (x, u) shape.
    """
    c = brackets.catalog_concomitant(name)
    coeffs, tabs, _ = tableaux.harmonic_project(c.poly)
    return coeffs, tabs


def isotypic_match(name, locus, degree, primes=linalg.DEFAULT_PRIMES):
    """Does the coefficient span of a concomitant lie in the degree-j kernel?

    Each tableau coefficient is reduced to its weight-block vectors, and
    those of dominant weight are tested for membership in the block's kernel
    row span, over every prime.  The coefficient span is a GL3-module, so
    its other blocks are permutations of the dominant ones.
    The vectors are reduced exactly mod p; a prime that divides a
    coefficient's denominator raises ValueError.
    """
    gp = graded_kernel(locus, degree, primes)
    coeffs, tabs = concomitant_coefficients(name)
    vectors = [(w, vec) for f in coeffs if f
               for w, vec in poly_to_block_vectors(f, degree).items() if is_dominant(w)]
    for p in gp.primes:
        for w, vec in vectors:
            v = np.array([_residue(x, p) for x in vec], dtype=np.int64)
            if not linalg.in_rowspan_mod(gp.dominant_bases[p][w], v, p):
                return False
    return True


def _residue(x, p):
    """The rational x reduced mod p; ValueError if p divides its denominator."""
    x = Fraction(x)
    if x.denominator % p == 0:
        raise ValueError(f"coefficient {x} has no residue mod {p}")
    return x.numerator * pow(x.denominator, -1, p) % p


def syzygy_relation_check():
    """The explicit linear syzygies among the 27 cube-locus equations.

    The generators f_T are the tableau coefficients of the degree-2 symbolic
    concomitant of type (2, 2, 2).  Each relation concomitant Psi, projected
    onto the same (x, u) tableau basis and contracted with the f_T through the
    invariant pairing on that basis (coefficient-by-coefficient contraction is
    not equivariant: the pairing needs the Gram matrix of the trace-free
    representatives), yields a bihomogeneous polynomial in (y, v) whose
    harmonic coefficients all vanish identically -- one relation per tableau
    of the (y, v) shape.  The projection works in (x, u), so y and v are
    renamed to x and u first.  Returns {name: number of relations}; raises
    AssertionError on a nonzero coefficient, also under python -O.
    """
    f, tabs = concomitant_coefficients("Phi222")
    G = tableaux.invariant_gram(2, 2)
    n = len(tabs)
    # F_i = sum_j G_ij f_j, so that sum_i c_i F_i pairs c with f
    F = [Poly((mo, coef * G[i][j]) for j in range(n) if G[i][j]
              for mo, coef in f[j].terms.items()) for i in range(n)]
    rename = {"y": "x", "v": "u"}
    counts = {}
    for name in ("Psi54", "Psi51", "Psi42", "Psi21"):
        c, tabs2 = concomitant_coefficients(name)
        if tabs2 != tabs:
            raise RuntimeError(f"{name} does not share the (x,u) shape of Phi222")
        # R = sum_i c_i F_i, with y, v renamed to x, u in each product monomial
        R = Poly((monomial([(rename.get(v[0], v[0]) + v[1:], e) for v, e in m1 + m2]),
                  c1 * c2)
                 for i in range(n) if c[i]
                 for m1, c1 in c[i].terms.items() for m2, c2 in F[i].terms.items())
        h, _, _ = tableaux.harmonic_project(R)
        for hS in h:
            if hS:
                raise AssertionError(f"{name}: nonzero syzygy coefficient {hS!r}")
        dy, dv = brackets.catalog_concomitant(name).ctype.extra
        counts[name] = len(tableaux.enumerate_tableaux(dv, dy))
    return counts


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def piece_to_dict(piece):
    return {
        "locus": piece.locus,
        "degree": piece.degree,
        "primes": list(piece.primes),
        "dimension": piece.dimension(),
        "blocks": [{"weight": list(w), "nullity": n}
                   for w, n in sorted(piece.block_nullities.items())],
        "character": [{"a": a, "b": b, "mult": m}
                      for (a, b), m in piece.decomposition],
    }
