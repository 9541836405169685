"""Graded pieces of the defining ideals of the six loci.

The degree-j piece of the ideal of a locus is the kernel of the substitution
map R_j -> k[params]: send each degree-j monomial in a0..a9 to its image under
a_r -> phi_r(params).  The map preserves torus weight, so the kernel splits
into weight blocks, and the block nullities are the character of the graded
piece.

Every locus is GL3-stable, so each graded piece is a sum of irreducibles
V_lam, and graded_kernel reads its character one irreducible at a time: the
multiplicity of V_lam is a nullity mod p of the image block lam times its
m_lam highest-weight vectors (see below), a matrix of m_lam columns (at most
4 below degree 9), and the block nullities follow from the irreducible
characters.  No kernel basis is eliminated for a dimension or a type.

graded_kernel caches each piece whole, in the one dict _PIECES keyed by
(locus, degree, primes), with its multiplicities {lam: k_lam > 0}.  Kernel
bases are built only when read (the cached property GradedPiece.bases, for
syzygies and evaluation): the piece is generated by its highest-weight
vectors, which the kernels of the products above give, and every block is
spanned by their images under the lowering derivations, its count checked
against its nullity.  No block is eliminated for its kernel.  The
verify-all check weyl-orbits-delta-5 eliminates every block of one kernel
and compares each block nullity with graded_kernel's, two independent routes.

Monomials in the a-variables are nondecreasing index tuples (a0 a0 a3 =
(0, 0, 3)), listed once per degree in lexicographic order by
monomials_by_weight; every block of every kind is built from those cached
lists, and a position in a block is looked up only where it is read.  A
monomial's substitution image is its prefix's image times one phi_r.
_image_blocks builds the images of the distinct prefixes of the chosen
monomials level by level, prefix length 1, 2, ..., in lexicographic order,
so each is computed once: a level is one batched numpy product of its
parents' terms with phi, merged by a sort on packed (prefix, parameter key)
and np.add.reduceat.  The last level is the monomials' own images, and each
block's rows are its parameter keys in increasing order, only the least of
each orbit of the parameter permutations that fix every phi_r (_symmetries).
Such a permutation fixes every image, so the keys of one orbit have equal
rows, and every row space, nullity, kernel and zero test is unchanged.  The
images are built once over Z for all the primes of a kernel, with int64
coefficients under one guard: a coefficient is at most L^degree in absolute
value, L the largest sum of |coefficients| of one phi_r, and a build where
that bound reaches 2^63 raises ValueError.  Below _MAX_MONOMIALS none does (L <= 12 and
degree <= 14: 12^14 < 2^51).

Every weight-blocked elimination (kernel multiplicities and bases,
syzygies, the all-block cross-check, highest-weight vectors, Hilbert values)
takes one path, _solve_blocks: for each prime it builds the blocks one at a
time and hands
each to one linalg entry, then compares the primes, and an exact count
where one is known.  It is the one place here that compares counts; a
disagreement raises UnluckyPrimeError naming the weight block and its count
modulo each prime.

Hilbert function values and kernel multiplicities are read one irreducible
at a time.  The multiplicity of V_lam in I_l, and so in R_l/I_l, lives in the
highest-weight space of the dominant block lam, the common kernel of the two
raising derivations, of dimension m_lam (the plethysm coefficient of V_lam in
Sym^l(S^3), at most 4 for l <= 8 against blocks of up to 331 monomials).
highest_weight_bases solves, once per (degree, prime) and for every locus,
only the blocks with m_lam > 0 in the decomposition of R_l, read from its
block sizes (_highest_weights): the kernel K
of the first raising map, then the kernel of the second restricted to K, each
count checked against m_lam.  The raising matrices are filled by array
operations on the monomial lists.  graded_kernel builds the image blocks of
these lam only and takes the nullity of each one times the transposed basis.
hilbert_value evaluates the monomials of all these blocks at the random
points of the locus in one array pass, takes for each lam the rank of the
basis times its block's values at the first m_lam + HILBERT_MARGIN points,
and sums dim V_lam times the ranks.  The points are the cubics of the
memoized loci.sample, so one seeded point sequence is drawn once and shared
by every degree.

Syzygies among the degree-j generators are the kernel of the multiplication
map (generators) x (linear forms) -> R_{j+1}; this needs no substitution
images in degree j+1, and no list of its monomials either: each product
g a_r is coded as an exponent vector, and a block's rows are the distinct
codes hit.  Again only the dominant blocks of R_{j+1} are eliminated.

Concomitant membership is exact, over Z: a concomitant's x1^dx u3^du
coefficient h (its source, Roberts' theorem) generates its irreducible
coefficient span, which lies in the ideal exactly when h's image is zero.
"""

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import chain, combinations_with_replacement, permutations
from operator import add

import numpy as np

from . import brackets, linalg, loci, tableaux
from .characters import Character, decompose, dim_irrep, normalize, weyl_character
from .poly import A_EXPS, A_INDEX, Poly, cubic_point, monomial, split_xu

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

def _check_degree(degree):
    """Raise ValueError for a negative degree or one of more than _MAX_MONOMIALS monomials."""
    if degree < 0:
        raise ValueError(f"degree must be at least 0, got {degree}")
    n = math.comb(degree + 9, 9)
    if n > _MAX_MONOMIALS:
        raise ValueError(f"degree {degree} has C({degree + 9}, 9) = {n:,} monomials, "
                         f"more than the bound of {_MAX_MONOMIALS:,}")


@lru_cache(maxsize=16)
def monomials_by_weight(degree):
    """Degree-`degree` monomials in a0..a9 grouped by weight: {weight: [index-tuple, ...]}.

    Tuples are nondecreasing and, within and across blocks, in lexicographic order.
    A degree that _check_degree refuses raises ValueError before any is listed.
    """
    _check_degree(degree)
    # the weights (w0, w1, 3 degree - w0 - w1) of the monomials, packed as
    # w0 * base + w1 and summed in the same order as the index tuples
    base = 3 * degree + 1
    packed = map(sum, combinations_with_replacement([e[0] * base + e[1] for e in A_EXPS], degree))
    by_key = {}
    for m, k in zip(combinations_with_replacement(range(10), degree), packed):
        by_key.setdefault(k, []).append(m)
    return {(k // base, k % base, 3 * degree - k // base - k % base): ms
            for k, ms in by_key.items()}


def is_dominant(w):
    return w[0] >= w[1] >= w[2]


def _fill_orbits(dominant):
    """Extend {dominant weight: value} to every weight of each orbit."""
    return {w: v for d, v in dominant.items() for w in sorted(set(permutations(d)))}


def poly_to_block_vectors(pl, degree):
    """Split an a-polynomial into {weight: dense coefficient list} vectors.

    A monomial's position is its index in its block's list; the positions
    are looked up only in the blocks the polynomial has terms in.
    """
    blocks = monomials_by_weight(degree)
    out, index = {}, {}
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
            index[w] = {m: i for i, m in enumerate(blocks[w])}
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


def _moves(perm):
    """A parameter permutation, perm[i] the image of parameter i, as shifts of
    packed keys: [(source shift, mask, target shift)], one per run of
    parameters that perm moves together."""
    cuts = [i for i in range(1, len(perm)) if perm[i] != perm[i - 1] + 1]
    return [(_SHIFT * lo, (1 << _SHIFT * (hi - lo)) - 1, _SHIFT * perm[lo])
            for lo, hi in zip([0, *cuts], [*cuts, len(perm)])]


def _permuted(keys, moves):
    """Packed keys with their parameters permuted as _moves gives."""
    return sum(((keys >> s) & mask) << t for s, mask, t in moves)


@lru_cache(maxsize=None)
def _symmetries(locus):
    """The permutations of the parameters of `locus` that fix every phi_r,
    identity left out, as tuples perm, perm[i] the image of parameter i: those
    sending each family (b1..b3, s) onto one of equal size, index kept, that
    fix every row of the tables of _encoded_phi."""
    fams = {}
    for i, v in enumerate(loci.substitution_map(locus).params):
        fams.setdefault(v.rstrip("0123456789"), []).append(i)
    fams = list(fams.values())
    keys, coeffs = _encoded_phi(locus)
    terms = [sorted(zip(k, c)) for k, c in zip(keys.tolist(), coeffs.tolist())]
    out = []
    for image in permutations(fams):
        if list(map(len, image)) != list(map(len, fams)):
            continue
        perm = tuple(j for _, j in sorted(zip(chain(*fams), chain(*image))))
        if perm == tuple(range(len(perm))):
            continue
        moved = _permuted(keys, _moves(perm))
        if [sorted(zip(k, c)) for k, c in zip(moved.tolist(), coeffs.tolist())] == terms:
            out.append(perm)
    return tuple(out)


def _times_phi(image, parents, lasts, phi, group=()):
    """The products image[parents[i]] * phi_{lasts[i]}, one for each owner i.

    `image` is (starts, keys, coeffs), owner j's terms being keys and coeffs
    [starts[j]:starts[j + 1]].  Returns (owner, key, coeff) arrays sorted by
    owner, then key, with equal keys merged and zero sums dropped.  The
    owners are taken in chunks of about _CHUNK products, so the live arrays
    stay small, and of few enough owners that a chunk-local owner and a key
    pack into one int64 sort key.

    `group`, parameter permutations (_symmetries) that fix every product,
    keeps only the keys least in their orbits, k <= s(k) for every s, each
    chunk filtered after its merge.
    """
    starts, keys, coeffs = image
    phikey, phicoef = phi
    # keys fill the 6-bit fields up to the highest parameter in phi
    width = -(-int(phikey.max()).bit_length() // _SHIFT) * _SHIFT
    counts = starts[parents + 1] - starts[parents]
    sizes = counts * phikey.shape[1]
    ids = np.arange(len(parents))
    moves = [_moves(perm) for perm in group]
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
        packed, c = packed[first[nz]], c[nz]
        key = packed & ((1 << width) - 1)
        if moves:
            least = np.logical_and.reduce([key <= _permuted(key, m) for m in moves])
            packed, key, c = packed[least], key[least], c[least]
        out.append((lo + (packed >> width), key, c))
    return tuple(map(np.concatenate, zip(*out)))


def _image_blocks(locus, degree, weights):
    """Per-weight substitution matrices over Z, transposed for nullspace extraction.

    Returns {weight: (shape, rows, cols, coeffs)} for the given weights of
    degree-`degree` blocks, in their given order, and builds no other block:
    the sparse integer matrix of shape (n_param_keys, n_monos) as int64
    arrays, which _blocks_mod reduces modulo a prime.  The columns are the
    block's monomials (in the order of monomials_by_weight), so nullspace
    vectors are ideal elements; the rows are the block's packed parameter
    keys in increasing order, only the least of each orbit of
    _symmetries(locus), whose keys have equal rows (see the module
    docstring).  Entries come sorted by column, then row.

    The images of the distinct prefixes of the chosen monomials are built
    level by level, each level one batched product with phi (_times_phi);
    the last level is the monomials' own images, and only it drops keys.
    Every coefficient is at most L^degree in absolute value, L the largest
    sum of |coefficients| of one phi_r; a bound past int64 raises ValueError.
    """
    phi = _encoded_phi(locus)
    blocks = monomials_by_weight(degree)
    bound = int(np.abs(phi[1]).sum(axis=1).max()) ** degree
    if bound >= 2 ** 63:
        raise ValueError(f"images of {locus} in degree {degree} have coefficients up to "
                         f"{bound:,}, past int64")
    chosen = list(weights)
    if degree == 0 or not chosen:
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
    owner, keys, coeffs = _times_phi(image, parent, mono[:, -1], phi, _symmetries(locus))
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

def _solve_blocks(what, primes, blocks, solve, exact=None):
    """Solve every block modulo every prime, and check that the primes agree.

    blocks(p) yields (weight, int64 matrix mod p), one block at a time, and
    solve(A, p) is the linalg entry for the job (for highest-weight vectors,
    A is the pair of raising matrices and solve calls nullspace_mod twice,
    see _common_kernel).  Returns
    ({p: {weight: result}}, {weight: count}), where a count is the result
    itself (a rank or a nullity) or its number of rows (a kernel basis), and
    zero counts are left out.  Primes that disagree raise UnluckyPrimeError
    naming the first weight block whose counts differ.  `exact`, a
    {weight: count} known in advance, takes part in the comparison as one
    more source, named 'exact'.
    """
    results, counts = {}, {}
    for p in primes:
        results[p] = {w: solve(A, p) for w, A in blocks(p)}
        n = {w: len(r) if isinstance(r, np.ndarray) else r for w, r in results[p].items()}
        counts[p] = {w: k for w, k in n.items() if k}
    sources = dict(counts)
    if exact is not None:
        sources["exact"] = {w: k for w, k in exact.items() if k}
    for w in sorted(set().union(*sources.values())):
        got = {s: c.get(w, 0) for s, c in sources.items()}
        if len(set(got.values())) > 1:
            raise linalg.UnluckyPrimeError(
                f"{what}: weight block {w} has nullity {got} by prime")
    return results, counts[primes[0]]


# ---------------------------------------------------------------------------
# graded kernels
# ---------------------------------------------------------------------------

@dataclass
class _Piece:
    """A graded piece: the nullity of every nonzero weight block, dominant or not."""
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
    """A graded piece of an ideal, whose kernel bases are built on first read."""
    multiplicities: dict             # dominant weight lam -> k_lam > 0

    @cached_property
    def bases(self):
        """prime -> {weight: (monos, basis rows)} for every nonzero block, built on first read.

        The highest-weight kernel vectors, N^T B_lam with N the kernel of
        A_lam B_lam^T mod p, are found for the lam of `multiplicities` and
        checked against k_lam; _lowered spans every block from them, each
        checked against block_nullities.  A shortfall raises UnluckyPrimeError
        naming the block and caches nothing.
        """
        what = f"of {self.locus} degree {self.degree}"
        images = _image_blocks(self.locus, self.degree, self.multiplicities)
        tops, _ = _solve_blocks(
            f"highest-weight kernel vectors {what}", self.primes,
            lambda p: _hw_products(images, self.degree, p),
            lambda AB, p: _product_mod(linalg.nullspace_mod(AB[0], p).T, AB[1], p),
            exact=self.multiplicities)
        # top down: F1 and F2 each lower 2 w0 + w1 by one
        order = sorted(self.block_nullities, key=lambda w: -2 * w[0] - w[1])
        maps = {w: _weight_maps(self.degree, w, _LOWERING) for w in order}
        bases, _ = _solve_blocks(
            f"kernel bases {what}", self.primes,
            lambda p: _lowered(tops[p], maps, p, linalg.rowbasis_mod),
            lambda B, p: B, exact=self.block_nullities)
        blocks = monomials_by_weight(self.degree)
        return {p: {w: (blocks[w], B) for w, B in bs.items()} for p, bs in bases.items()}

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


_PIECES = {}   # (locus, degree, primes) -> GradedPiece


def _lowered(tops, maps, p, rowbasis):
    """Yield (weight, basis rows mod p) of every block of `maps`, in its order.

    A graded piece is U(n-) applied to its highest-weight vectors, `tops`
    (Fulton-Harris, Lectures 12-13).  maps: {weight: (F1, F2)} for every
    nonzero block, in decreasing order of 2 w0 + w1.  A block's rows are its
    tops and the F1, F2 images of the blocks above, reduced by `rowbasis`.
    """
    found = {w: [B] for w, B in tops.items()}
    for w, fs in maps.items():
        B = rowbasis(np.vstack(found.pop(w)), p)
        yield w, B
        for F, (step, _) in zip(fs, _LOWERING):
            if (t := tuple(map(add, w, step))) in maps:
                found.setdefault(t, []).append(_product_mod(B, F.T, p))


def _hw_products(images, degree, p):
    """Yield (lam, (A_lam B_lam^T mod p, B_lam)) for each image block lam, B_lam
    the rows of highest_weight_bases(degree, p) in block lam."""
    hw = highest_weight_bases(degree, p)
    for w, A in _blocks_mod(images, p):
        yield w, (_product_mod(A, hw[w].T, p), hw[w])


def graded_kernel(locus, degree, primes=linalg.DEFAULT_PRIMES):
    """The degree-`degree` piece of the ideal of `locus`, one irreducible at a time.

    I = I_degree is GL3-stable, so it holds each V_lam some mult_lam times,
    and the nullity of its weight block w is the sum over lam of mult_lam
    times the multiplicity of the weight w in V_lam (weyl_character).  For
    each dominant lam with m_lam > 0 (the plethysm coefficient of V_lam in
    Sym^degree(S^3)), mult_lam is read in lam's highest-weight space: it is
    k_lam = nullity of A_lam B_lam^T mod p, A_lam the image block of lam and
    B_lam the m_lam rows of highest_weight_bases(degree, p) (m_lam <= 4 below
    degree 9).  Only these image blocks are built.  The k_lam are computed
    independently modulo every prime in `primes` and must agree
    (_solve_blocks); a disagreement raises UnluckyPrimeError naming the block.

    One-sided, like a block nullity mod p: k_lam >= mult_lam over Q.  The
    space HW_lam(R_degree) cap I has dimension mult_lam and an integer basis
    whose reductions mod p are independent, lie in the span of B_lam (the
    count check of highest_weight_bases makes B_lam the reduction of
    HW_lam(R_degree)) and are killed by A_lam.  Their coordinates on B_lam are
    then mult_lam independent kernel vectors of A_lam B_lam^T.

    The piece, its {lam: k_lam > 0} as `multiplicities`, is cached in _PIECES
    per (locus, degree, primes).  No kernel basis is built here;
    GradedPiece.bases lowers the highest-weight kernel vectors on first read.
    """
    primes = linalg.check_primes(primes)
    key = (locus, degree, primes)
    if key not in _PIECES:
        # one image build over Z serves every prime.  A bad locus or degree
        # raises in the build, and a disagreement in the solve, before
        # anything is stored.
        images = _image_blocks(locus, degree, _highest_weights(degree))
        _, mults = _solve_blocks(f"kernel of {locus} degree {degree}", primes,
                                 lambda p: _hw_products(images, degree, p),
                                 lambda AB, p: linalg.nullity_mod(AB[0], p))
        char = Character()
        for w, k in mults.items():
            char += weyl_character(w[0] - w[2], w[1] - w[2]).scale(k)
        nullities = {w: n for w in monomials_by_weight(degree)
                     if (n := char.get(normalize(w), 0))}
        _PIECES[key] = GradedPiece(locus, degree, primes, nullities, mults)
    return _PIECES[key]


def full_block_nullities(locus, degree, primes):
    """{weight: nullity} of every block, dominant or not, each eliminated.

    The cross-check of graded_kernel, which reads the nullities from
    highest-weight spaces and the irreducible characters instead.  One image
    build over Z serves every prime, and the primes must agree.
    """
    primes = linalg.check_primes(primes)
    blocks = monomials_by_weight(degree)
    images = _image_blocks(locus, degree, list(blocks))
    return _solve_blocks(f"all blocks of {locus} degree {degree}", primes,
                         lambda p: _blocks_mod(images, p), linalg.nullity_mod)[1]


# ---------------------------------------------------------------------------
# highest-weight vectors and Hilbert function values
# ---------------------------------------------------------------------------

# the raising derivations D1, D2 and the lowering ones F1, F2 as (weight step,
# exponent read): D a_s is (e_s[read] + 1) a_{s + step}, the pullbacks of
# x1 -> x1 + t x2 and x2 -> x2 + t x3, and of x2 -> x2 + t x1 and x3 -> x3 + t x2
_RAISING = (((1, -1, 0), 0), ((0, 1, -1), 1))
_LOWERING = (((-1, 1, 0), 1), ((0, -1, 1), 2))


def _monomial_array(monos, degree):
    """The index tuples `monos` of one degree as an (n, degree) int64 array."""
    return np.array(monos, dtype=np.int64).reshape(len(monos), degree)


def _weight_maps(degree, w, derivations):
    """The `derivations` on block w: int8 matrices from its monomials to block w + step.

    Column j is the image of the block's j-th monomial, by Leibniz: a factor
    a_s of multiplicity c goes to c (e_s[read] + 1) a_{s + step} times the
    rest.  An image monomial is found in its block by its code, the exponent
    vector in base degree + 1 with a0's exponent the leading digit, which
    falls strictly along each list of monomials_by_weight.  Where no factor
    can take the step the matrix has no rows.  Entries are at most 3 degree
    (42 at the largest listed degree, 14), residues for every allowed prime.
    """
    blocks = monomials_by_weight(degree)
    power = (degree + 1) ** np.arange(9, -1, -1, dtype=np.int64)
    monos = _monomial_array(blocks[w], degree)
    codes = power[monos].sum(axis=1)
    # the first factor of each run of equal factors of a monomial
    first = np.ones(monos.shape, dtype=bool)
    first[:, 1:] = monos[:, 1:] != monos[:, :-1]
    maps = []
    for step, read in derivations:
        # the index of a_{s + step} for each s (-1 where there is none), and e_s[read] + 1
        up = np.array([A_INDEX.get(tuple(map(add, e, step)), -1) for e in A_EXPS])
        factor = np.array([e[read] + 1 for e in A_EXPS])
        target = _monomial_array(blocks.get(tuple(map(add, w, step)), []), degree)
        D = np.zeros((len(target), len(monos)), dtype=np.int8)
        # (col, k): a factor a_s of the col-th monomial that can take the step
        col, k = np.nonzero(first & (up[monos] >= 0))
        s = monos[col, k]
        moved = codes[col] - power[s] + power[up[s]]
        # codes fall along the target's list, so their negatives are sorted
        rows = np.searchsorted(-power[target].sum(axis=1), -moved)
        D[rows, col] = (monos[col] == s[:, None]).sum(axis=1) * factor[s]
        maps.append(D)
    return tuple(maps)


def _common_kernel(maps, p, nullspace):
    """Rows spanning ker D1 cap ker D2 mod p: K = ker D1, N = ker(D2 K), then (K N)^T.

    K's columns are independent, so the columns of K N are a basis of the
    vectors of ker D1 that D2 kills, the same space as the kernel of the two
    maps stacked.  `nullspace` is the linalg entry, passed in by the caller.
    """
    D1, D2 = maps
    K = nullspace(D1, p)
    N = nullspace(_product_mod(D2, K, p), p)
    return _product_mod(K, N, p).T.copy()


@lru_cache(maxsize=16)
def _highest_weights(degree):
    """{dominant weight w: m_w} for every block with m_w > 0, in the order of
    monomials_by_weight: m_w is the multiplicity of V_(w0 - w2, w1 - w2) in
    R_degree = Sym^degree(S^3), decomposed from its block sizes, the weight
    multiplicities of R_degree.  Read only: the dict is cached."""
    blocks = monomials_by_weight(degree)
    mults = dict(decompose({w: len(ms) for w, ms in blocks.items()}))
    return {w: m for w in blocks if is_dominant(w)
            if (m := mults.get((w[0] - w[2], w[1] - w[2]), 0))}


@lru_cache(maxsize=32)
def highest_weight_bases(degree, p):
    """{dominant weight: basis rows mod p} of the highest-weight vectors of R_degree.

    The highest-weight vectors of block w are the common kernel, on the
    block, of the raising derivations D1 a_s = (e_s[0] + 1) a_{s+(1,-1,0)} and
    D2 a_s = (e_s[1] + 1) a_{s+(0,1,-1)}, extended to monomials by Leibniz:
    K = ker D1, then the kernel of D2 restricted to it (_common_kernel).
    Only the blocks w whose label (w0 - w2, w1 - w2) has a nonzero exact
    multiplicity m_w in R_degree = Sym^degree(S^3) are solved
    (_highest_weights); no Hilbert value or kernel multiplicity reads the
    others.  Every count is compared with m_w; a mismatch raises
    UnluckyPrimeError and caches nothing.  The mod-p kernel holds the
    reduction of the rational one, so equal counts prove that the basis is
    that reduction.  No locus enters.
    """
    p = linalg.check_prime(p)
    exact = _highest_weights(degree)
    results, _ = _solve_blocks(f"highest-weight vectors of degree {degree}", (p,),
                               lambda _: ((w, _weight_maps(degree, w, _RAISING)) for w in exact),
                               lambda maps, q: _common_kernel(maps, q, linalg.nullspace_mod),
                               exact=exact)
    bases = results[p]
    for B in bases.values():
        B.flags.writeable = False     # cached: every caller shares these arrays
    return bases


def _product_mod(B, E, p):
    """B @ E mod p for residues B, E, exact in int64: the inner sum is cut
    into runs of at most (2^63 - 1) // (p - 1)^2 products, each run's sum
    reduced before it is added."""
    run = (2 ** 63 - 1) // (p - 1) ** 2
    out = np.zeros((B.shape[0], E.shape[1]), dtype=np.int64)
    for lo in range(0, B.shape[1], run):
        out = (out + B[:, lo:lo + run] @ E[lo:lo + run] % p) % p
    return out


def hilbert_value(locus, degree, prime=linalg.DEFAULT_PRIMES[0], seed=0):
    """H(locus, degree) = sum over irreducibles V_lam of dim V_lam times an evaluation rank.

    For each dominant weight lam whose highest-weight space HW_lam(R_degree)
    has dimension m > 0, the rank is that of B E mod `prime`: B the m basis
    rows of highest_weight_bases(degree, prime), E the values of the
    block's monomials (in the order of monomials_by_weight) at the first
    m + HILBERT_MARGIN points and at no others, so every irreducible has its
    own margin of HILBERT_MARGIN points past its size.  The values of all
    these blocks' monomials are computed in one array pass, and each block
    takes its slice.  The k-th point is the cubic loci.sample(locus, (seed,
    k), prime); sample is memoized, so every degree shares one drawn sequence.

    Monte Carlo (one-sided): the result is a lower bound.  The ideal is
    GL3-stable, so (R/I)_degree holds V_lam with multiplicity mult_lam =
    m - k, k the dimension of HW_lam(R_degree) cap I.  That space has an
    integer basis whose reductions mod `prime` are independent, lie in the
    span of B (the count check of highest_weight_bases makes B the reduction
    of HW_lam(R_degree)) and vanish at every point of the locus.  So the left
    kernel of B E has dimension at least k, and each rank is at most
    mult_lam.  It equals mult_lam when the points are generic for the block;
    the margin makes an undercount vanishingly unlikely.
    """
    prime = linalg.check_prime(prime)
    bases = highest_weight_bases(degree, prime)
    blocks = monomials_by_weight(degree)
    npoints = max(map(len, bases.values())) + HILBERT_MARGIN
    phival = np.array([loci.sample(locus, (seed, k), prime) for k in range(npoints)],
                      dtype=np.int64).T
    # E's row i, column k: the i-th monomial of the blocks in turn at the k-th point
    monos = [m for w in bases for m in blocks[w]]
    E = np.ones((len(monos), npoints), dtype=np.int64)
    for col in _monomial_array(monos, degree).T:
        E = E * phival[col] % prime
    bounds = np.cumsum([0] + [len(blocks[w]) for w in bases])

    def evaluations(p):
        for (w, B), lo, hi in zip(bases.items(), bounds, bounds[1:]):
            yield w, _product_mod(B, E[lo:hi, :len(B) + HILBERT_MARGIN], p)

    _, ranks = _solve_blocks(f"H({locus}, {degree})", (prime,), evaluations, linalg.rank_mod)
    return sum(dim_irrep(w[0] - w[2], w[1] - w[2]) * r for w, r in ranks.items())


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
    an orbit take its nullity.  No monomial of degree + 1 is listed: a
    block's rows are the distinct codes of the products g_i a_r that land in
    it, the exponent vector in base degree + 2 as _weight_maps codes
    monomials.  Every other row of the block is zero, so the nullity is the
    same.  A degree + 1 that _check_degree refuses raises before any kernel.
    """
    if degree is None:
        degree = loci.GENERATOR_DEGREES[locus][0]
    _check_degree(degree + 1)
    gp = graded_kernel(locus, degree, primes)
    power = (degree + 2) ** np.arange(9, -1, -1, dtype=np.int64)

    def blocks(p):
        # columns of the syzygy system: for each g_i and r, the codes of the
        # monomials of g_i * a_r in the block of its weight
        parts = {}          # dominant weight -> [(row codes, generator rows)]
        for w, (monos, B) in sorted(gp.bases[p].items()):
            codes = power[_monomial_array(monos, degree)].sum(axis=1)
            for r, e in enumerate(A_EXPS):
                if is_dominant(wr := tuple(map(add, w, e))):
                    parts.setdefault(wr, []).append((codes + power[r], B))
        for wr, cols in parts.items():
            codes, rows = np.unique(np.concatenate([c for c, _ in cols]), return_inverse=True)
            A = np.zeros((len(codes), sum(len(B) for _, B in cols)), dtype=np.int64)
            at = j = 0
            for c, B in cols:
                A[rows[at:at + len(c)], j:j + len(B)] = B.T
                at, j = at + len(c), j + len(B)
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


def isotypic_match(name, locus):
    """Does the coefficient span of a catalog concomitant lie in the ideal I of `locus`?

    Exact, from h, the x1^dx u3^du coefficient of Phi of type (d, dx, du): an
    integer polynomial in a of one dominant weight w.  Phi's harmonic
    coefficients span W, the image of the irreducible harmonic space under an
    equivariant map, so W is irreducible or zero.  h is the coefficient on the
    tableau T0 = (2^dx 3^du | 3^dx), as no monomial of trace * R is x1^dx u3^du.
    A nonzero vector generates an irreducible module and I is GL3-stable, so W
    lies in I exactly when h does: when h(phi) = 0 over Z, that is when the
    integer block _image_blocks(locus, d)[w] sends h's vector to zero, computed
    in Python ints with no prime, kernel or projection.  A zero h raises ValueError.
    """
    c = brackets.catalog_concomitant(name)
    d, dx, du = c.ctype.as_tuple()
    key = monomial([("x1", dx), ("u3", du)])
    # the terms whose (x, u) part is the key, split as harmonic_project splits them
    h = Poly((outer, x) for (inner, outer), x in zip(split_xu(c.poly.terms),
                                                     c.poly.terms.values()) if inner == key)
    if not h:
        raise ValueError(f"{name} has a zero x1^{dx} u3^{du} coefficient; it proves nothing")
    ((w, vec),) = poly_to_block_vectors(h, d).items()
    shape, rows, cols, coeffs = _image_blocks(locus, d, [w])[w]
    image = [0] * shape[0]
    for r, j, a in zip(rows.tolist(), cols.tolist(), coeffs.tolist()):
        image[r] += a * vec[j]
    return not any(image)


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
