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

The tensor product is a vectorized convolution.  A normalized weight w is the
lattice point (w0 - w2, w1 - w2), and lattice points add under the product,
so each operand's points are packed into one int key, offset so that the sum
of two keys is the packed key of the sum with no carry between fields.  All
pair keys come from one broadcast add, all multiplicity products from
np.outer, and np.add.at sums them into a dense array over the packed key
range.  Its dtype is int64 when sum|m_a| * sum|m_b| < 2^63, which bounds every
partial sum; otherwise it is object, with exact Python ints.

The accumulator spans the bounding box of the sum's lattice points, so the
product assumes operands that are dense in their boxes, as every Weyl
character, symmetric power and hook is.  A product whose box exceeds both
_BOX_FLOOR entries and _BOX_PER_PAIR entries per weight pair (sparse weights
far apart) raises ValueError rather than allocating the box, and so do
powers whose one dense array (see _powers) would pass _BOX_FLOOR entries.
That array's entries are nonnegative partial sums, int64 while every power's
dimension is below 2^63, else exact Python ints.

decompose peels each irreducible from one working dict in place.  Cached
weyl_character results are only read.
"""

from functools import lru_cache
from itertools import chain
from math import comb

import numpy as np

_INT64_BOUND = 1 << 63
_BOX_FLOOR = 1 << 22      # accumulator entries always allowed (32 MB of int64)
_BOX_PER_PAIR = 16        # beyond the floor, entries allowed per weight pair


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


def _lattice(c, dtype):
    """Lattice coordinates (w0 - w2, w1 - w2) and multiplicities of c as arrays."""
    n = len(c)
    w = np.fromiter(chain.from_iterable(c), np.int64, 3 * n).reshape(n, 3)
    return w[:, 0] - w[:, 2], w[:, 1] - w[:, 2], np.fromiter(c.values(), dtype, n)


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
        """Tensor product: convolution of weight multiplicities.

        Sums into a dense array over the bounding box of the sum's lattice
        points; raises ValueError when that box is far larger than the
        number of weight pairs (see the module docstring).
        """
        if not self or not other:
            return Character()
        bound = sum(map(abs, self.values())) * sum(map(abs, other.values()))
        dtype = np.int64 if bound < _INT64_BOUND else object
        xa, ya, ma = _lattice(self, dtype)
        xb, yb, mb = _lattice(other, dtype)
        x0a, y0a, x0b, y0b = xa.min(), ya.min(), xb.min(), yb.min()
        height = int(ya.max() - y0a + yb.max() - y0b + 1)
        width = int(xa.max() - x0a + xb.max() - x0b + 1)
        if width * height > max(_BOX_FLOOR, _BOX_PER_PAIR * len(self) * len(other)):
            raise ValueError(f"character product needs a {width} x {height} box for "
                             f"{len(self) * len(other)} weight pairs; weights too sparse")
        ka = (xa - x0a) * height + (ya - y0a)
        kb = (xb - x0b) * height + (yb - y0b)
        acc = np.zeros(width * height, dtype)
        np.add.at(acc, (ka[:, None] + kb).ravel(), np.outer(ma, mb).ravel())
        keys = np.flatnonzero(acc)
        return _from_lattice(keys // height + (x0a + x0b), keys % height + (y0a + y0b),
                             acc[keys])

    def dual(self):
        return Character._filled((normalize((-w[0], -w[1], -w[2])), m)
                                 for w, m in self.items())

    def is_genuine(self):
        return all(m >= 0 for m in self.values())


def _from_lattice(x, y, m):
    """The Character with multiplicities m at the distinct lattice points (x, y)."""
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


def decompose(c):
    """Greedy peel into irreducibles: list of ((a, b), multiplicity).

    Repeatedly takes the lexicographically greatest dominant weight
    (a, b, 0) of the remainder, a highest weight by Weyl symmetry, and
    subtracts its irreducible in place.  Every other dominant weight of that
    irreducible is lexicographically smaller, so the top strictly decreases.
    Once nothing remains, c is by construction the sum of the peeled
    irreducibles.  Input that is not Weyl-symmetric raises ValueError: some
    step finds a nonzero remainder with no dominant weight.
    """
    rem = dict(c)
    out = []
    while rem:
        top = max((w for w in rem if w[0] >= w[1] >= w[2]), default=None)
        if top is None:
            raise ValueError("character is not Weyl-symmetric")
        ab, mult = top[:2], rem[top]
        _axpy(rem, weyl_character(*ab), -mult)
        out.append((ab, mult))
    out.sort(key=lambda t: (-t[0][0], -t[0][1]))
    return out


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
    """[Sym^0 c, ..., Sym^kmax c], or the wedge^k when alternating: the t^k terms of
    prod_w (1 - t z^w)^(-m_w), or prod_w (1 + t z^w)^m_w (Macdonald, I.2), as layers
    P[k] over the lattice points (w0 - w2, w1 - w2) - k (x0, y0), (x0, y0) least in c.
    A weight at shift (i, j) multiplies by sum_r C(m+r-1, r) (t z^w)^r, or
    sum_r C(m, r) (t z^w)^r: for k descending, P[k] gains C P[k-r] moved by r (i, j).
    Layer k starts at the sums of its k least shifts, each shift taken at most m
    times for a wedge, so P spans the widest layer, not k times the span of c.
    The wedge^k past the dimension are zero and take no layer."""
    if kmax < 0 or not c.is_genuine():
        raise ValueError(f"powers need k >= 0 and a genuine character, got k = {kmax}")
    if not c:
        return [char_trivial()] + [Character() for _ in range(kmax)]
    dim = c.dimension()
    top = min(kmax, dim) if alternating else kmax
    bound = comb(dim, min(top, dim // 2)) if alternating else comb(dim + top - 1, top)
    dtype = np.int64 if bound < _INT64_BOUND else object
    x, y, _ = _lattice(c, object)
    x0, y0 = int(x.min()), int(y.min())
    xs, ys = (x - x0).tolist(), (y - y0).tolist()
    caps = [min(m, top) if alternating else top for m in c.values()]
    (lox, width), (loy, height) = _layer_extents(xs, caps, top), _layer_extents(ys, caps, top)
    if (top + 1) * width * height > _BOX_FLOOR:
        raise ValueError(f"powers up to {top} need a {top + 1} x {width} x {height} box; "
                         f"weights too far apart")
    P = np.zeros((top + 1, width, height), dtype)
    P[0, 0, 0] = 1
    for i, j, m in zip(xs, ys, c.values()):
        coef = [comb(m, r) if alternating else comb(m + r - 1, r) for r in range(top + 1)]
        for k in range(top, 0, -1):
            for r in range(1, min(k, m) + 1 if alternating else k + 1):
                # nonzero entries land inside layer k; the cut drops only zeros
                (a, b), (e, f) = (_cut(r * i + lox[k - r] - lox[k], width),
                                  _cut(r * j + loy[k - r] - loy[k], height))
                P[k, a, e] += coef[r] * P[k - r, b, f]
    layers = enumerate(map(np.nonzero, P))
    return ([_from_lattice(X + lox[k] + k * x0, Y + loy[k] + k * y0, P[k, X, Y])
             for k, (X, Y) in layers]
            + [Character() for _ in range(kmax - top)])


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
    return _powers(lmax, c, alternating=False)


def sym_power(ell, c):
    return sym_powers(ell, c)[ell]


def ext_powers(kmax, c):
    """Characters of wedge^0..wedge^kmax of a genuine character."""
    return _powers(kmax, c, alternating=True)


def ext_power(k, c):
    zero = c.is_genuine() and k > c.dimension()     # wedge^k vanishes past the dimension
    return Character() if zero else ext_powers(k, c)[k]


def hook_schur(a, b, c):
    """Schur functor of hook shape (a, 1^b): sum_i (-1)^i h_{a+i} e_{b-i}."""
    if a < 1 or b < 0:
        raise ValueError("hook shape needs a >= 1, b >= 0")
    return _hook(a, b, sym_powers(a + b, c), ext_powers(b, c))


def _hook(a, b, hs, es):
    """Hook (a, 1^b) from the lists hs[k] = Sym^k and es[k] = wedge^k of one character."""
    acc = Character()
    for i in range(b + 1):
        _axpy(acc, hs[a + i] * es[b - i], (-1) ** i)
    return acc

