"""SL3 weight and character calculus.

A character is a finitely supported integer-valued function on torus weights.
Weights live in Z^3 modulo the diagonal (1,1,1); we store the normalized
representative with min coordinate 0.  Virtual characters (negative
multiplicities) are first-class, so alternating sums of complexes are directly
representable.

Irreducibles are labelled by dominant pairs (a, b) with a >= b >= 0; the pair
(a, b) names the module with highest weight (a, b, 0), of dimension
(m+1)(n+1)(m+n+2)/2 where m = a-b, n = b.  Symmetric and exterior powers are
the terms of generating products (Macdonald, Symmetric Functions and Hall
Polynomials, I.2); hook shapes (a, 1^b) are the only other plethysms needed.

Products and powers run on lattice triples (x, y, m).  A normalized weight w
is the lattice point (w0 - w2, w1 - w2), lattice points add under the product,
and m holds the multiplicities, int64 while sum|m| < 2^63, else exact Python
ints.  _convolve adds any number of signed products of triples into one dense
accumulator over the packed keys (x * height + y) of their bounding box: all
pair keys of a product come from one broadcast add, all multiplicity products
from np.outer, and np.add.at sums them.  The accumulator is int64 when the
summed sum|m_a| * sum|m_b| stay below 2^63, which bounds every partial sum;
otherwise it is object, with exact Python ints.  Character.__mul__ is one
such product.  hook_schur and the spectral row sums of resolution add all of
their products into one accumulator, and build one Character at the end.

The accumulator spans the bounding box of the sum's lattice points, so the
product assumes operands that are dense in their boxes, as every Weyl
character, symmetric power and hook is.  A product whose box exceeds both
_BOX_FLOOR entries and _BOX_PER_PAIR entries per weight pair (sparse weights
far apart) raises ValueError rather than allocating the box, and so do
powers whose one dense array (see _powers) would pass _BOX_FLOOR entries.
That array's entries are nonnegative partial sums, int64 while every power's
dimension is below 2^63, else exact Python ints.  A symmetric power takes
each weight of multiplicity m as m one-step recurrence passes, or as one
binomial series when that needs fewer slice-adds.

decompose reads every multiplicity at once from the numerator of Weyl's
character formula on one dense lattice box.  Cached weyl_character results
are only read.
"""

from functools import lru_cache
from itertools import chain
from math import comb

import numpy as np

_INT64_BOUND = 1 << 63
_BOX_FLOOR = 1 << 22      # accumulator entries always allowed (32 MB of int64)
_BOX_PER_PAIR = 16        # beyond the floor, entries allowed per weight pair
_EMPTY = (np.zeros(0, np.int64),) * 3    # the lattice triple of the zero character


def normalize(w):
    m = min(w)
    return (w[0] - m, w[1] - m, w[2] - m)


def _axpy(acc, c, k):
    """acc += k * c in place, for a dict acc and a character c on normalized weights."""
    if not k:
        return
    get = acc.get
    for w, m in c.items():
        m = get(w, 0) + k * m
        if m:
            acc[w] = m
        else:
            del acc[w]


def _lattice(c):
    """The lattice triple of c: coordinates (w0 - w2, w1 - w2) and multiplicities
    as arrays, the multiplicities int64 while sum |m| < 2^63, else Python ints."""
    n = len(c)
    w = np.fromiter(chain.from_iterable(c), np.int64, 3 * n).reshape(n, 3)
    dtype = np.int64 if sum(map(abs, c.values())) < _INT64_BOUND else object
    return w[:, 0] - w[:, 2], w[:, 1] - w[:, 2], np.fromiter(c.values(), dtype, n)


def _mass(m):
    """sum |m| of a triple's multiplicities, exact: an int64 array's is below 2^63."""
    return int(np.abs(m).sum())


def _convolve(products):
    """sum_i k_i a_i b_i for [(k_i, a_i, b_i)], an int and two lattice triples each,
    as one lattice triple.  Every product adds its pairs into one dense accumulator
    over the bounding box of all the sums' lattice points, int64 while
    sum_i |k_i| sum|m_a_i| sum|m_b_i| < 2^63, which bounds every partial sum, and
    Python ints past that.  A box past both _BOX_FLOOR entries and _BOX_PER_PAIR
    entries per weight pair raises ValueError before it is allocated."""
    products = [(k, a, b) for k, a, b in products if k and len(a[2]) and len(b[2])]
    if not products:
        return _EMPTY
    bound = sum(abs(k) * _mass(a[2]) * _mass(b[2]) for k, a, b in products)
    dtype = np.int64 if bound < _INT64_BOUND else object
    x0 = int(min(a[0].min() + b[0].min() for _, a, b in products))
    y0 = int(min(a[1].min() + b[1].min() for _, a, b in products))
    width = int(max(a[0].max() + b[0].max() for _, a, b in products)) - x0 + 1
    height = int(max(a[1].max() + b[1].max() for _, a, b in products)) - y0 + 1
    pairs = sum(len(a[2]) * len(b[2]) for _, a, b in products)
    if width * height > max(_BOX_FLOOR, _BOX_PER_PAIR * pairs):
        raise ValueError(f"character product needs a {width} x {height} box for "
                         f"{pairs} weight pairs; weights too sparse")
    acc = np.zeros(width * height, dtype)
    origin = x0 * height + y0
    for k, (xa, ya, ma), (xb, yb, mb) in products:
        # y stays inside [0, height) in every sum, so the packed keys carry nothing
        keys = (xa * height + ya - origin)[:, None] + (xb * height + yb)
        ma, mb = ma.astype(dtype, copy=False), mb.astype(dtype, copy=False)
        np.add.at(acc, keys.ravel(), np.outer(k * ma, mb).ravel())
    keys = np.flatnonzero(acc)
    return keys // height + x0, keys % height + y0, acc[keys]


class Character(dict):
    """Weight -> multiplicity map with the arithmetic of virtual characters."""

    def __init__(self, data=None):
        super().__init__()
        if isinstance(data, Character):
            self.update(data)   # already normalized and free of zeros
        elif data:
            for w, m in data.items():
                self.add(w, m)

    @classmethod
    def _filled(cls, pairs):
        """A Character from (normalized weight, nonzero multiplicity) pairs, weights distinct."""
        out = cls()
        out.update(pairs)
        return out

    def add(self, w, mult):
        if mult == 0:
            return
        w = normalize(tuple(w))
        m = self.get(w, 0) + mult
        if m:
            self[w] = m
        else:
            self.pop(w, None)

    def dimension(self):
        return sum(self.values())

    def _merged(self, other, sign):
        out = Character(self)
        _axpy(out, other, sign)
        return out

    def __add__(self, other):
        return self._merged(other, 1)

    def __sub__(self, other):
        return self._merged(other, -1)

    def __neg__(self):
        return Character._filled((w, -m) for w, m in self.items())

    def scale(self, k):
        if not k:
            return Character()
        return Character._filled((w, k * m) for w, m in self.items())

    def __mul__(self, other):
        """Tensor product: convolution of weight multiplicities (see _convolve)."""
        if not self or not other:
            return Character()
        return _from_lattice(*_convolve([(1, _lattice(self), _lattice(other))]))

    def dual(self):
        return Character._filled((normalize((-w[0], -w[1], -w[2])), m)
                                 for w, m in self.items())

    def is_genuine(self):
        return all(m >= 0 for m in self.values())


def _from_lattice(x, y, m):
    """The Character of the lattice triple (x, y, m), its points distinct."""
    low = np.minimum(np.minimum(x, y), 0)
    weights = zip((x - low).tolist(), (y - low).tolist(), (-low).tolist())
    return Character._filled(zip(weights, m.tolist()))


def char_trivial():
    return Character({(0, 0, 0): 1})


def dim_irrep(a, b):
    """Dimension of the irreducible labelled (a, b): (m+1)(n+1)(m+n+2)/2."""
    if not (a >= b >= 0):
        raise ValueError("need a >= b >= 0")
    m, n = a - b, b
    return (m + 1) * (n + 1) * (m + n + 2) // 2


def dual_weight(a, b):
    """Dual irreducible label: (a, b) -> (a, a-b)."""
    return (a, a - b)


@lru_cache(maxsize=None)
def weyl_character(a, b=0):
    """Character of the irreducible (a, b): the weight mu, |mu| = a + b, has the
    Kostka number of tableaux of shape (a, b) and content mu, one for each count
    x of first-row 2s, max(0, mu2 - mu1, b - mu1, mu2 - b) <= x <= min(mu2, a - mu1)."""
    if not (a >= b >= 0):
        raise ValueError("need a >= b >= 0")
    n = a + b
    mu1, mu2 = np.divmod(np.arange((n + 1) ** 2), n + 1)
    mu3 = n - mu1 - mu2
    low = np.maximum(np.maximum(mu2 - mu1, b - mu1), np.maximum(mu2 - b, 0))
    kostka = np.minimum(mu2, a - mu1) - low + 1
    keep = (mu3 >= 0) & (kostka > 0)
    return _from_lattice((mu1 - mu3)[keep], (mu2 - mu3)[keep], kostka[keep])


# rho - w(rho) and sgn(w) for the six w of S3, in lattice coordinates
_WEYL_SHIFTS = ((0, 0, 1), (1, -1, -1), (1, 2, -1), (3, 0, 1), (3, 3, 1), (4, 2, -1))


def decompose(c):
    """Irreducible decomposition: list of ((a, b), multiplicity), sorted by (-a, -b).

    By Weyl's character formula (Fulton-Harris 24.1), m_lam is the
    coefficient of z^(lam + rho) in c times sum_w sgn(w) z^(w rho).  On c's
    lattice points (w0 - w2, w1 - w2), in a square box D padded by one cell
    low and four high: m(a, b) = D[a, b] - D[a+1, b-1] - D[a+1, b+2]
    + D[a+3, b] + D[a+3, b+3] - D[a+4, b+2], kept at a >= b >= 0.  c may be
    any {weight: multiplicity}.  Unless D equals its transpose (s1) and c(x, y)
    equals D at (x - y, -y) (s2), raises ValueError.
    """
    if not c:
        return []
    x, y, m = _lattice(c)
    lo = min(x.min(), y.min()) - 1
    n = int(max(x.max(), y.max()) - lo) + 5
    if n * n > max(_BOX_FLOOR, _BOX_PER_PAIR * len(m)):
        raise ValueError(f"decompose needs a {n} x {n} box for {len(m)} weights; "
                         f"weights too sparse")
    D = np.zeros((n, n), m.dtype)
    D[x - lo, y - lo] = m
    sx, sy = x - y - lo, -y - lo
    inside = (sx >= 0) & (sx < n) & (sy >= 0) & (sy < n)
    if not (np.array_equal(D, D.T) and inside.all() and np.array_equal(D[sx, sy], m)):
        raise ValueError("character is not Weyl-symmetric")
    k = n - 5
    # each sum reads distinct points of c, so int64 sums stay below sum|m| < 2^63
    M = sum(s * D[1 + i:1 + i + k, 1 + j:1 + j + k] for i, j, s in _WEYL_SHIFTS)
    i, j = np.nonzero(M)
    a, b = i + lo + 1, j + lo + 1
    keep = (a >= b) & (b >= 0)
    # row-major order, reversed: a descending, then b descending
    return list(zip(zip(a[keep].tolist(), b[keep].tolist()), M[i[keep], j[keep]].tolist()))[::-1]


def multiplicity(c, ab):
    """Coefficient of the irreducible (a, b) in the decomposition of c."""
    for pair, m in decompose(c):
        if pair == tuple(ab):
            return m
    return 0


def from_modules(pairs):
    """Character of a direct sum given as [(a, b), ...], one pair per summand."""
    c = Character()
    for a, b in pairs:
        _axpy(c, weyl_character(a, b), 1)
    return c


def _powers(kmax, c, alternating):
    """Lattice triples of [Sym^0 c, ..., Sym^kmax c], or the wedge^k when alternating:
    the t^k terms of prod_w (1 - t z^w)^(-m_w), or prod_w (1 + t z^w)^m_w (Macdonald,
    I.2), as layers P[k] over the lattice points (w0 - w2, w1 - w2) - k (x0, y0),
    (x0, y0) least in c.  Let a weight sit at shift (i, j).  For Sym, its factor
    is m passes of the one-step recurrence P[k] += P[k-1] moved by (i, j), k
    ascending, so that each pass divides by (1 - t z^w): m k slice-adds.  Past
    m > (k+1)/2 the binomial series sum_r C(m+r-1, r) (t z^w)^r needs fewer, k (k+1)/2:
    for k descending, P[k] gains C P[k-r] moved by r (i, j).  A wedge always takes
    its series sum_r C(m, r) (t z^w)^r, r <= m.  Layer k starts at the sums of its
    k least shifts, each shift taken at most m times for a wedge, so P spans the
    widest layer, not k times the span of c.  The wedge^k past the dimension are
    zero and take no layer."""
    if kmax < 0 or not c.is_genuine():
        raise ValueError(f"powers need k >= 0 and a genuine character, got k = {kmax}")
    if not c:
        return [_lattice(char_trivial())] + [_EMPTY] * kmax
    dim = c.dimension()
    top = min(kmax, dim) if alternating else kmax
    bound = comb(dim, min(top, dim // 2)) if alternating else comb(dim + top - 1, top)
    dtype = np.int64 if bound < _INT64_BOUND else object
    x, y, _ = _lattice(c)
    x0, y0 = int(x.min()), int(y.min())
    xs, ys = (x - x0).tolist(), (y - y0).tolist()
    caps = [min(m, top) if alternating else top for m in c.values()]
    (lox, width), (loy, height) = _layer_extents(xs, caps, top), _layer_extents(ys, caps, top)
    if (top + 1) * width * height > _BOX_FLOOR:
        raise ValueError(f"powers up to {top} need a {top + 1} x {width} x {height} box; "
                         f"weights too far apart")
    P = np.zeros((top + 1, width, height), dtype)
    P[0, 0, 0] = 1

    def moved(k, r):
        """(target in layer k, source in layer k - r) of a move by r (i, j); nonzero
        entries land inside layer k, so the cut drops only zeros."""
        (a, b), (e, f) = (_cut(r * i + lox[k - r] - lox[k], width),
                          _cut(r * j + loy[k - r] - loy[k], height))
        return P[k, a, e], P[k - r, b, f]

    for i, j, m in zip(xs, ys, c.values()):
        if not alternating and 2 * m <= top + 1:
            steps = [moved(k, 1) for k in range(1, top + 1)]
            for _ in range(m):
                for target, source in steps:
                    target += source
            continue
        coef = [comb(m, r) if alternating else comb(m + r - 1, r) for r in range(top + 1)]
        for k in range(top, 0, -1):
            for r in range(1, min(k, m) + 1 if alternating else k + 1):
                target, source = moved(k, r)
                target += coef[r] * source
    layers = enumerate(map(np.nonzero, P))
    return ([(X + lox[k] + k * x0, Y + loy[k] + k * y0, P[k, X, Y]) for k, (X, Y) in layers]
            + [_EMPTY] * (kmax - top))


def _layer_extents(shifts, caps, top):
    """([least sum of k shifts, k = 0..top], the widest layer's span + 1), each
    shift taken at most its cap times."""
    def least(values):
        out = [0]
        for v, cap in sorted(zip(values, caps)):
            out += [out[-1] + v * t for t in range(1, min(cap, top + 1 - len(out)) + 1)]
        return out
    lo, hi = least(shifts), [-v for v in least([-v for v in shifts])]
    return lo, max(h - l for l, h in zip(lo, hi)) + 1


def _cut(shift, size):
    """(target, source) slices of one axis moving entries by `shift` inside [0, size)."""
    return slice(max(shift, 0), size + min(shift, 0)), slice(max(-shift, 0), size - max(shift, 0))


def sym_powers(lmax, c):
    """Characters of Sym^0..Sym^lmax of a genuine character."""
    return [_from_lattice(*t) for t in _powers(lmax, c, alternating=False)]


def sym_power(ell, c):
    return sym_powers(ell, c)[ell]


def ext_powers(kmax, c):
    """Characters of wedge^0..wedge^kmax of a genuine character."""
    return [_from_lattice(*t) for t in _powers(kmax, c, alternating=True)]


def ext_power(k, c):
    zero = c.is_genuine() and k > c.dimension()     # wedge^k vanishes past the dimension
    return Character() if zero else ext_powers(k, c)[k]


def hook_schur(a, b, c):
    """Schur functor of hook shape (a, 1^b): sum_i (-1)^i h_{a+i} e_{b-i}."""
    if a < 1 or b < 0:
        raise ValueError("hook shape needs a >= 1, b >= 0")
    return _from_lattice(*_hook(a, b, _powers(a + b, c, False), _powers(b, c, True)))


def _hook(a, b, hs, es):
    """The lattice triple of the hook (a, 1^b), from the lattice triples hs[k] of
    Sym^k and es[k] of wedge^k of one character: its b + 1 products
    (-1)^i hs[a+i] es[b-i] summed in one _convolve accumulator."""
    return _convolve([((-1) ** i, hs[a + i], es[b - i]) for i in range(b + 1)])
