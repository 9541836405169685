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
(0, 0, 3)), listed once per degree in lexicographic order by
monomials_by_weight; every block of every kind is built from those cached
lists.  A monomial's substitution image is its prefix's image times one
phi_r.  _image_blocks builds the images of the distinct prefixes of the
chosen monomials level by level, prefix length 1, 2, ..., in lexicographic
order, so each is computed once: a level is one batched numpy product of its
parents' terms with phi, merged by a sort on packed (prefix, parameter key)
and np.add.reduceat.  The last level is the monomials' own images, and each
block's rows are its parameter keys in increasing order.  The images are
built once over Z for all the primes of a kernel, with int64 coefficients
under one guard: a coefficient is at most L^degree in absolute value, L the
largest sum of |coefficients| of one phi_r, and a build where that bound
reaches 2^63 raises ValueError.  Below _MAX_MONOMIALS none does (L <= 12 and
degree <= 14: 12^14 < 2^51).

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
from .poly import A_EXPS, A_INDEX, Poly, cubic_point, monomial

_SHIFT = 6  # exponent-vector packing: 6 bits per parameter
HILBERT_MARGIN = 12  # evaluation points past each block's size
_CHUNK = 1 << 14  # products per batch in _times_phi
# The most monomials, C(d + 9, 9), listed for one degree: degrees up to 14
# pass, 12 among them (293,930, for the Koszul cells of the Betti ledger), and
# 15 on fail before listing.  Degree 20 would list 10,015,005, and from degree
# 22 on equiv's L^3 (exponents up to 3d) could carry out of the 6-bit fields.
_MAX_MONOMIALS = 10 ** 6


# ---------------------------------------------------------------------------
# monomial lists and their S3 orbits
# ---------------------------------------------------------------------------

@lru_cache(maxsize=16)
def monomials_by_weight(degree):
    """Degree-`degree` monomials in a0..a9 grouped by weight.

    Returns ({weight: [index-tuple, ...]}, {weight: {index-tuple: position}}).
    Tuples are nondecreasing and, within and across blocks, in lexicographic order.
    A negative degree, or one of more than _MAX_MONOMIALS monomials, raises ValueError.
    """
    if degree < 0:
        raise ValueError(f"degree must be at least 0, got {degree}")
    n = math.comb(degree + 9, 9)
    if n > _MAX_MONOMIALS:
        raise ValueError(f"degree {degree} has C({degree + 9}, 9) = {n:,} monomials, "
                         f"more than the bound of {_MAX_MONOMIALS:,}")
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
# substitution images
# ---------------------------------------------------------------------------

def _encoded_phi(locus):
    """phi_r as zero-padded (10, T) int64 tables, one of packed exponent
    vectors and one of integer coefficients; row r holds phi_r's T or fewer terms."""
    spec = loci.substitution_map(locus)
    pidx = {v: i for i, v in enumerate(spec.params)}
    width = max(len(phi.terms) for phi in spec.phi)
    keys = np.zeros((10, width), dtype=np.int64)
    coeffs = np.zeros((10, width), dtype=np.int64)
    for r, phi in enumerate(spec.phi):
        for t, (mo, c) in enumerate(phi.terms.items()):
            keys[r, t] = sum(e << (_SHIFT * pidx[v]) for v, e in mo)
            coeffs[r, t] = int(c)
    return keys, coeffs


def _times_phi(image, parents, lasts, phi):
    """The products image[parents[i]] * phi_{lasts[i]}, one for each owner i.

    `image` is (starts, keys, coeffs), owner j's terms being keys and coeffs
    [starts[j]:starts[j + 1]].  Returns (owner, key, coeff) arrays sorted by
    owner, then key, with equal keys merged and zero sums dropped.  The
    owners are taken in chunks of about _CHUNK products, so the live arrays
    stay small, and of few enough owners that a chunk-local owner and a key
    pack into one int64 sort key.
    """
    starts, keys, coeffs = image
    phikey, phicoef = phi
    # keys fill the 6-bit fields up to the highest parameter in phi
    width = -(-int(phikey.max()).bit_length() // _SHIFT) * _SHIFT
    counts = starts[parents + 1] - starts[parents]
    sizes = counts * phikey.shape[1]
    ids = np.arange(len(parents))
    chunk = (np.cumsum(sizes) - sizes) // _CHUNK
    cut = (np.diff(chunk) != 0) | (np.diff(ids >> (63 - width)) != 0)
    bounds = [0, *(np.flatnonzero(cut) + 1), len(parents)]
    out = []
    for lo, hi in zip(bounds, bounds[1:]):
        n = counts[lo:hi]
        owner = np.repeat(ids[:hi - lo], n)
        # the parent terms of owner i: a run of n[i] from starts[parents[i]]
        term = np.arange(len(owner)) + np.repeat(starts[parents[lo:hi]] - np.cumsum(n) + n, n)
        r = lasts[lo:hi][owner]
        c = coeffs[term, None] * phicoef[r]
        live = c != 0       # drops the padding of the phi table
        packed = ((owner[:, None] << width) + keys[term, None] + phikey[r])[live]
        order = np.argsort(packed)
        packed, c = packed[order], c[live][order]
        first = np.flatnonzero(np.diff(packed, prepend=-1))
        c = np.add.reduceat(c, first)
        nz = c != 0
        packed = packed[first[nz]]
        out.append((lo + (packed >> width), packed & ((1 << width) - 1), c[nz]))
    return tuple(map(np.concatenate, zip(*out)))


def _image_blocks(locus, degree, dominant_only=True):
    """Per-weight substitution matrices over Z, transposed for nullspace extraction.

    Returns {weight: (shape, rows, cols, coeffs)} for the dominant weights, or
    for every weight without `dominant_only`: the sparse integer matrix of
    shape (n_param_keys, n_monos) as int64 arrays, which _blocks_mod reduces
    modulo a prime.  The columns are the block's monomials (in the order of
    monomials_by_weight), so nullspace vectors are ideal elements; the rows
    are the block's packed parameter keys in increasing order.  Entries come
    sorted by column, then row.

    The images of the distinct prefixes of the chosen monomials are built
    level by level, each level one batched product with phi (_times_phi);
    the last level is the monomials' own images.  Every coefficient is at
    most L^degree in absolute value, L the largest sum of |coefficients| of
    one phi_r; a bound past int64 raises ValueError.
    """
    phi = _encoded_phi(locus)
    blocks, _ = monomials_by_weight(degree)
    bound = int(np.abs(phi[1]).sum(axis=1).max()) ** degree
    if bound >= 2 ** 63:
        raise ValueError(f"images of {locus} in degree {degree} have coefficients up to "
                         f"{bound:,}, past int64")
    chosen = [w for w in blocks if is_dominant(w) or not dominant_only]
    if degree == 0:
        zero = np.zeros(1, dtype=np.intp)
        return {w: ((1, 1), zero, zero, np.ones(1, dtype=np.int64)) for w in chosen}
    mono = np.array([m for w in chosen for m in blocks[w]], dtype=np.int8)
    lex = np.lexsort(mono.T[::-1])
    ordered = mono[lex]
    # image: the level's images, owner j the j-th distinct prefix in
    # lexicographic order; prefix: the owner of each ordered monomial's prefix
    image = (np.array([0, 1]), np.zeros(1, dtype=np.int64), np.ones(1, dtype=np.int64))
    prefix = np.zeros(len(mono), dtype=np.intp)
    new = np.zeros(len(mono), dtype=bool)
    new[0] = True
    for level in range(degree - 1):
        new[1:] |= ordered[1:, level] != ordered[:-1, level]
        first = np.flatnonzero(new)
        owner, keys, coeffs = _times_phi(image, prefix[first], ordered[first, level], phi)
        image = (np.searchsorted(owner, np.arange(len(first) + 1)), keys, coeffs)
        prefix = np.cumsum(new) - 1
    parent = np.empty_like(prefix)
    parent[lex] = prefix
    # the last level: the monomials themselves, in the chosen order, so a
    # block's columns are a run of owners; rows are ranked block by block
    owner, keys, coeffs = _times_phi(image, parent, mono[:, -1], phi)
    sizes = [len(blocks[w]) for w in chosen]
    starts = np.cumsum([0] + sizes)
    cuts = np.searchsorted(owner, starts)
    out = {}
    for w, n, at, lo, hi in zip(chosen, sizes, starts, cuts, cuts[1:]):
        uniq, rows = np.unique(keys[lo:hi], return_inverse=True)
        out[w] = ((len(uniq), n), rows, owner[lo:hi] - at, coeffs[lo:hi])
    return out


def _blocks_mod(images, p):
    """Yield (weight, int64 matrix) of each integer image block, reduced mod p."""
    for w, (shape, rows, cols, coeffs) in images.items():
        A = np.zeros(shape, dtype=np.int64)
        A[rows, cols] = coeffs % p
        yield w, A


# ---------------------------------------------------------------------------
# the one solve path
# ---------------------------------------------------------------------------

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
        """Do all kernel basis vectors vanish at the cubic `point` (mod p)?

        The point is 10 integer coefficients a0..a9, as poly.cubic_point checks.
        """
        p = linalg.check_prime(p)
        if p not in self.bases:
            raise ValueError(f"no kernel basis modulo {p}; have {sorted(self.bases)}")
        pv = [x % p for x in cubic_point(point)]
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
    primes = linalg.check_primes(primes)
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
    primes = linalg.check_primes(primes)
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
    # listed first, so a degree past the bound fails before any kernel
    _, idx_up = monomials_by_weight(degree + 1)
    gp = graded_kernel(locus, degree, primes)

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
