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

Monomials in the a-variables are encoded as nondecreasing tuples of indices
(a0 a0 a3 = (0, 0, 3)); building them by appending indices >= the last one
makes the monomials of all degrees a tree.  One depth-first walk over that
tree (_walk) serves the monomial lists, the substitution images and the
Hilbert evaluations; it keeps only the current path in memory and enters only
prefixes of dominant-weight monomials, so no work is spent on other blocks.

The substitution images are walked once over Z, with exact integer
coefficients, for all the primes a kernel lacks; each prime then fills its
int64 blocks from those entries reduced mod p, so no coefficient meets int64
before it is reduced.

Hilbert function values come from evaluation instead: the rank of the matrix
of monomial values at random points of the locus, on each dominant block,
counted once per weight of its orbit.

Syzygies among the degree-j generators are the kernel of the multiplication
map (generators) x (linear forms) -> R_{j+1}; this needs no substitution
images in degree j+1, only monomial bookkeeping, and again only the dominant
blocks of R_{j+1} are eliminated.
"""

from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import permutations

import numpy as np

from . import brackets, linalg, loci, tableaux
from .characters import Character, decompose
from .poly import A_EXPS, A_INDEX

_SHIFT = 6  # exponent-vector packing: 6 bits per parameter
HILBERT_MARGIN = 12  # evaluation points past each block's size


# ---------------------------------------------------------------------------
# the monomial tree and its S3 orbits
# ---------------------------------------------------------------------------

def _walk(degree, root, step, leaf, prune=True):
    """Depth-first walk over the monomial tree down to `degree`.

    A node is a nondecreasing index tuple with its weight and a state: the
    root's state is `root`, a child's is step(parent state, r) for the index r
    it appends.  leaf(mono, weight, state) runs at every degree-`degree`
    monomial, in the order of monomials_by_weight.  With `prune` the walk
    enters only prefixes of monomials of dominant weight.
    """
    keep = _dominant_prefixes(degree) if prune else None
    stack = [((), (0, 0, 0), root)]
    while stack:
        mono, w, state = stack.pop()
        if len(mono) == degree:
            leaf(mono, w, state)
            continue
        # push descending so that the smallest index pops first
        for r in range(9, (mono[-1] if mono else 0) - 1, -1):
            child = mono + (r,)
            if keep is None or child in keep:
                e = A_EXPS[r]
                stack.append((child, (w[0] + e[0], w[1] + e[1], w[2] + e[2]),
                              step(state, r)))


@lru_cache(maxsize=16)
def monomials_by_weight(degree):
    """Degree-`degree` monomials in a0..a9 grouped by weight.

    Returns ({weight: [index-tuple, ...]}, {weight: {index-tuple: position}}).
    Tuples are nondecreasing; order within a block is generation order.
    """
    blocks = {}
    _walk(degree, None, lambda state, r: None,
          lambda mono, w, state: blocks.setdefault(w, []).append(mono), prune=False)
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

    Returns {weight: (monos, image)} for the dominant weights, or for every
    weight without `dominant_only`.  An image is the sparse integer matrix
    (shape, rows, cols, coeffs) of shape (n_param_keys, n_monos), with exact
    Python-int coefficients; _block_mod reduces it modulo a prime.  The column
    space is indexed by the block's monomials (in the order of
    monomials_by_weight), so nullspace vectors are ideal elements.
    """
    phi = _encoded_phi(locus)
    blocks, index = monomials_by_weight(degree)
    keyidx = {}    # weight -> {packed param key: row index}
    entries = {}   # weight -> (rows, cols, coeffs) of the nonzero entries

    def step(img, r):
        child = {}
        for k1, c1 in img.items():
            for k2, c2 in phi[r].items():
                k = k1 + k2
                child[k] = child.get(k, 0) + c1 * c2
        return {k: c for k, c in child.items() if c}

    def leaf(mono, w, img):
        ki = keyidx.setdefault(w, {})
        rows, cols, coeffs = entries.setdefault(w, ([], [], []))
        j = index[w][mono]
        for k, c in img.items():
            rows.append(ki.setdefault(k, len(ki)))
            cols.append(j)
            coeffs.append(c)

    _walk(degree, {0: 1}, step, leaf, prune=dominant_only)
    return {w: (blocks[w], ((len(keyidx[w]), len(blocks[w])), *e))
            for w, e in entries.items()}


def _block_mod(image, p):
    """The int64 matrix of an integer image block, reduced mod p."""
    shape, rows, cols, coeffs = image
    A = np.zeros(shape, dtype=np.int64)
    A[rows, cols] = [c % p for c in coeffs]
    return A


def _agree(what, per_prime):
    """The common {weight: nullity} of every prime's blocks.

    A disagreement raises UnluckyPrimeError naming the first weight block
    whose nullities differ, with the nullity modulo each prime.
    """
    maps = list(per_prime.values())
    for w in sorted(set().union(*maps)):
        got = {p: nn.get(w, 0) for p, nn in per_prime.items()}
        if len(set(got.values())) > 1:
            raise linalg.UnluckyPrimeError(
                f"{what}: weight block {w} has nullity {got} by prime")
    return maps[0]


def _piece_character(nullities):
    """The decomposition of the character with these block nullities."""
    ch = Character()
    for w, n in nullities.items():
        ch.add(w, n)
    return decompose(ch) if ch else []


# ---------------------------------------------------------------------------
# graded kernels
# ---------------------------------------------------------------------------

@dataclass
class GradedPiece:
    locus: str
    degree: int
    primes: tuple
    block_nullities: dict            # weight -> nullity
    decomposition: list              # [((a, b), mult)]
    # prime -> {dominant weight: basis rows}, as cached by graded_kernel
    dominant_bases: dict = field(repr=False, compare=False)

    def dimension(self):
        return sum(self.block_nullities.values())

    @cached_property
    def bases(self):
        """prime -> {weight: (monos, basis ndarray)} for every nonzero block.

        Built on first read from the dominant bases by basis transport, so a
        piece whose bases nobody reads pays nothing for them.
        """
        return {p: _orbit_bases(B, self.degree) for p, B in self.dominant_bases.items()}

    def vanishes_at(self, point, p):
        """Do all kernel basis vectors vanish at the cubic `point` (mod p)?"""
        p = linalg.check_prime(p)
        if p not in self.bases:
            raise ValueError(f"no kernel basis modulo {p}; have {sorted(self.bases)}")
        basis = self.bases[p]
        pv = [x % p for x in point]
        n = linalg.DOT_TERMS
        for monos, B in basis.values():
            vals = np.array([_mono_value(m, pv, p) for m in monos], dtype=np.int64)
            acc = np.zeros(len(B), dtype=np.int64)
            for k in range(0, len(monos), n):
                acc = (acc + B[:, k:k + n] @ vals[k:k + n]) % p
            if np.any(acc):
                return False
        return True


def _mono_value(mono, point_vals, p):
    acc = 1
    for r in mono:
        acc = acc * point_vals[r] % p
    return acc


_KERNEL_CACHE = {}   # (locus, degree) -> {p: {dominant weight: basis rows}}


def _orbit_bases(dominant, degree):
    """{weight: (monos, basis rows)} for every nonzero block of the kernel.

    A non-dominant block's basis is its dominant block's basis with the
    a-indices permuted (see _transport), not a second elimination.
    """
    blocks, _ = monomials_by_weight(degree)
    out = {}
    for d, B in dominant.items():
        if not len(B):
            continue
        for w in orbit(d):
            Bw = np.empty_like(B)
            Bw[:, _transport(degree, d, w)] = B
            out[w] = (blocks[w], Bw)
    return out


def graded_kernel(locus, degree, primes=linalg.DEFAULT_PRIMES):
    """The degree-`degree` piece of the ideal of `locus`.

    Only the dominant weight blocks are eliminated; every other block has the
    nullity of its dominant block.  Block nullities are computed
    independently modulo every prime in `primes` and must agree; a
    disagreement raises UnluckyPrimeError naming the block.
    """
    primes = tuple(linalg.check_prime(p) for p in primes)
    cached = _KERNEL_CACHE.setdefault((locus, degree), {})
    missing = [p for p in primes if p not in cached]
    if missing:
        # one walk over Z serves every missing prime; basis vectors as rows
        # over the block's monomials, and a prime is stored only once all
        # its blocks are complete
        images = _image_blocks(locus, degree)
        for p in missing:
            cached[p] = {w: linalg.nullspace_mod(_block_mod(img, p), p).T.copy()
                         for w, (_, img) in images.items()}
    dominant = _agree(f"kernel of {locus} degree {degree}",
                      {p: {w: len(B) for w, B in cached[p].items() if len(B)}
                       for p in primes})
    nullities = _fill_orbits(dominant)
    return GradedPiece(locus, degree, primes, nullities, _piece_character(nullities),
                       {p: cached[p] for p in primes})


def full_block_nullities(locus, degree, primes):
    """{prime: {weight: nullity}} of every block, dominant or not, each eliminated.

    The cross-check of the orbit reduction: graded_kernel takes the nullity
    of a non-dominant block from its dominant block instead.  One walk over
    Z builds the images for every prime.
    """
    primes = tuple(linalg.check_prime(p) for p in primes)
    images = _image_blocks(locus, degree, dominant_only=False)
    out = {}
    for p in primes:
        nn = {w: linalg.nullity_mod(_block_mod(img, p), p) for w, (_, img) in images.items()}
        out[p] = {w: n for w, n in nn.items() if n}
    return out


# ---------------------------------------------------------------------------
# Hilbert function values by evaluation
# ---------------------------------------------------------------------------

def hilbert_value(locus, degree, prime=linalg.DEFAULT_PRIMES[0], seed=0):
    """H(locus, degree): rank of the monomial evaluation matrix at random points.

    The rank is taken on each dominant block and counted once for every
    weight of its orbit.  A block of n monomials is ranked at the first
    n + HILBERT_MARGIN points of one seeded sequence, so every block has its
    own margin of HILBERT_MARGIN points past its size.  Monte Carlo
    (one-sided): the result is a lower bound, equal to the true value when
    the points are generic for every dominant block; the margin makes an
    undercount vanishingly unlikely.
    """
    prime = linalg.check_prime(prime)
    blocks, _ = monomials_by_weight(degree)
    npoints = max(len(ms) for ms in blocks.values()) + HILBERT_MARGIN
    spec = loci.substitution_map(locus)
    pts = [loci.sample_params(locus, (seed, k), prime) for k in range(npoints)]
    phival = np.zeros((10, npoints), dtype=np.int64)
    for r in range(10):
        for k, vals in enumerate(pts):
            phival[r, k] = spec.phi[r].evaluate(vals, prime)

    rows = {}
    _walk(degree, np.ones(npoints, dtype=np.int64),
          lambda vals, r: vals * phival[r] % prime,
          lambda mono, w, vals: rows.setdefault(w, []).append(vals))
    ranks = {w: linalg.rank_mod(np.array(vs)[:, :len(vs) + HILBERT_MARGIN], prime)
             for w, vs in rows.items()}
    return sum(len(orbit(w)) * r for w, r in ranks.items())


# ---------------------------------------------------------------------------
# syzygies
# ---------------------------------------------------------------------------

@dataclass
class SyzygyPiece:
    locus: str
    degree: int                      # degree of the generators
    primes: tuple
    n_generators: int
    block_nullities: dict
    decomposition: list

    def dimension(self):
        return sum(self.block_nullities.values())


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

    per_prime = {}
    for p in gp.primes:
        basis = gp.bases[p]
        # columns of the syzygy system: for each g_i and r, the vector of
        # g_i * a_r in the block of its weight
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
        nn = {}
        for wr, blocks in parts.items():
            A = np.zeros((len(idx_up[wr]), sum(len(B) for _, B in blocks)),
                         dtype=np.int64)
            j = 0
            for rows, B in blocks:
                A[rows, j:j + len(B)] = B.T
                j += len(B)
            null = linalg.nullity_mod(A, p)
            if null:
                nn[wr] = null
        per_prime[p] = nn
    dominant = _agree(f"syzygies of {locus} degree {degree}", per_prime)
    nullities = _fill_orbits(dominant)
    return SyzygyPiece(locus, degree, gp.primes, gp.dimension(), nullities,
                       _piece_character(nullities))


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
    """
    gp = graded_kernel(locus, degree, primes)
    coeffs, tabs = concomitant_coefficients(name)
    for p in gp.primes:
        basis = gp.bases[p]
        for f in coeffs:
            if not f:
                continue
            for w, vec in poly_to_block_vectors(f, degree).items():
                if not is_dominant(w):
                    continue
                if w not in basis:
                    return False
                _, B = basis[w]
                v = np.array([int(x) % p for x in vec], dtype=np.int64)
                if not linalg.in_rowspan_mod(B, v, p):
                    return False
    return True


def syzygy_relation_check():
    """The explicit linear syzygies among the 27 cube-locus equations.

    The generators f_T are the tableau coefficients of the degree-2 symbolic
    concomitant of type (2, 2, 2).  Each relation concomitant Psi, projected
    onto the same (x, u) tableau basis and contracted with the f_T through the
    invariant pairing on that basis (coefficient-by-coefficient contraction is
    not equivariant: the pairing needs the Gram matrix of the trace-free
    representatives), yields a bihomogeneous polynomial in (y, v) whose
    harmonic coefficients all vanish identically -- one relation per tableau
    of the (y, v) shape.  Returns {name: number of relations}; raises
    AssertionError on a nonzero coefficient.
    """
    from .poly import Poly

    f, tabs = concomitant_coefficients("Phi222")
    G = tableaux.invariant_gram(2, 2)
    counts = {}
    for name in ("Psi54", "Psi51", "Psi42", "Psi21"):
        c, tabs2 = concomitant_coefficients(name)
        if tabs2 != tabs:
            raise RuntimeError(f"{name} does not share the (x,u) shape of Phi222")
        R = Poly()
        for i in range(len(tabs)):
            if not c[i]:
                continue
            for j in range(len(tabs)):
                if G[i][j]:
                    R = R + (c[i] * f[j]) * G[i][j]
        h, _, _ = tableaux.harmonic_project(R, point="y", line="v")
        for hS in h:
            assert not hS, f"{name}: nonzero syzygy coefficient {hS!r}"
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
