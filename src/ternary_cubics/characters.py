"""SL3 weight and character calculus.

A character is a finitely supported integer-valued function on torus weights.
Weights live in Z^3 modulo the diagonal (1,1,1); we store the normalized
representative with min coordinate 0.  Virtual characters (negative
multiplicities) are first-class, so alternating sums of complexes are directly
representable.

Irreducibles are labelled by dominant pairs (a, b) with a >= b >= 0; the pair
(a, b) names the module with highest weight (a, b, 0), of dimension
(m+1)(n+1)(m+n+2)/2 where m = a-b, n = b.  Symmetric/exterior powers of
arbitrary characters go through Adams operations and Newton recurrences; hook
shapes (a, 1^b) are the only other plethysms ever needed.

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
character, symmetric power and hook is, or whose boxes are small, as for
the Adams images inside the Newton recurrence (the largest box in the
spectral identities and decompose-sym 20 0 --power 3 has 14,641 entries).
A product whose box exceeds both _BOX_FLOOR entries and _BOX_PER_PAIR
entries per weight pair (sparse weights far apart) raises ValueError rather
than allocating the box.

decompose peels each irreducible from one working dict in place.  Cached
weyl_character and _h results are only read.
"""

from functools import lru_cache
from itertools import chain

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

    def exact_div(self, k):
        if any(m % k for m in self.values()):
            raise ValueError(f"character not divisible by {k}")
        return Character._filled((w, m // k) for w, m in self.items())

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
        x = keys // height + (x0a + x0b)
        y = keys % height + (y0a + y0b)
        low = np.minimum(np.minimum(x, y), 0)
        weights = zip((x - low).tolist(), (y - low).tolist(), (-low).tolist())
        return Character._filled(zip(weights, acc[keys].tolist()))

    def dual(self):
        return Character._filled((normalize((-w[0], -w[1], -w[2])), m)
                                 for w, m in self.items())

    def is_genuine(self):
        return all(m >= 0 for m in self.values())


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
def _h(k):
    """Character of Sym^k of the standard 3-dimensional module."""
    c = Character()
    if k < 0:
        return c
    for i in range(k + 1):
        for j in range(k - i + 1):
            c.add((i, j, k - i - j), 1)
    return c


@lru_cache(maxsize=None)
def weyl_character(a, b=0):
    """Character of the irreducible (a, b), by Jacobi-Trudi: h_a h_b - h_{a+1} h_{b-1}."""
    if not (a >= b >= 0):
        raise ValueError("need a >= b >= 0")
    return _h(a) * _h(b) - _h(a + 1) * _h(b - 1)


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
        if len(out) > 100000:
            raise ValueError("decomposition does not terminate; input not Weyl-symmetric?")
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


def adams(k, c):
    """k-th Adams operation: every weight w scaled to k*w."""
    if k < 1:
        raise ValueError("k >= 1")
    return Character._filled(((k * w[0], k * w[1], k * w[2]), m) for w, m in c.items())


def _newton(kmax, c, alternating):
    """[x_0, ..., x_kmax] from k x_k = sum_i s_i psi^i(c) x_{k-i}, x_0 = 1.

    With s_i = 1 the x_k are the symmetric powers of c; with the alternating
    signs s_i = (-1)^(i+1) they are the exterior powers.
    """
    xs = [char_trivial()]
    psums = [None] + [adams(i, c) for i in range(1, kmax + 1)]
    for k in range(1, kmax + 1):
        acc = Character()
        for i in range(1, k + 1):
            _axpy(acc, psums[i] * xs[k - i], -1 if alternating and i % 2 == 0 else 1)
        xs.append(acc.exact_div(k))
    return xs


def sym_powers(lmax, c):
    """Characters of Sym^0..Sym^lmax of a genuine character, by Newton recurrence."""
    if not c.is_genuine():
        raise ValueError("sym_power needs a genuine (nonvirtual) character")
    return _newton(lmax, c, alternating=False)


def sym_power(ell, c):
    if ell < 0:
        raise ValueError("ell >= 0")
    return sym_powers(ell, c)[ell]


def ext_powers(kmax, c):
    """Characters of wedge^0..wedge^kmax, by the elementary Newton recurrence."""
    return _newton(kmax, c, alternating=True)


def ext_power(k, c):
    if k < 0:
        raise ValueError("k >= 0")
    if k > c.dimension():
        return Character()
    return ext_powers(k, c)[k]


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

