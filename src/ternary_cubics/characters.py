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
"""

from functools import lru_cache
from itertools import permutations


def normalize(w):
    m = min(w)
    return (w[0] - m, w[1] - m, w[2] - m)


def dominant_pair(w):
    """The (a, b) label of the dominant representative of a weight orbit."""
    a, b, c = sorted(normalize(w), reverse=True)
    return (a - c, b - c)


class Character(dict):
    """Weight -> multiplicity map with the arithmetic of virtual characters."""

    def __init__(self, data=None):
        super().__init__()
        if isinstance(data, Character):
            self.update(data)   # already normalized and free of zeros
        elif data:
            for w, m in (data.items() if isinstance(data, dict) else data):
                self.add(w, m)

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
        if not isinstance(other, Character):
            for w, m in other.items():
                out.add(w, sign * m)
            return out
        # Character keys are already normalized: merge multiplicities directly
        get = out.get
        for w, m in other.items():
            m = get(w, 0) + sign * m
            if m:
                out[w] = m
            else:
                del out[w]
        return out

    def __add__(self, other):
        return self._merged(other, 1)

    def __sub__(self, other):
        return self._merged(other, -1)

    def __neg__(self):
        return Character({w: -m for w, m in self.items()})

    def scale(self, k):
        return Character({w: k * m for w, m in self.items()})

    def exact_div(self, k):
        if any(m % k for m in self.values()):
            raise ValueError(f"character not divisible by {k}")
        return Character({w: m // k for w, m in self.items()})

    def __mul__(self, other):
        """Tensor product: convolution of weight multiplicities."""
        raw = {}
        get = raw.get
        for (a0, a1, a2), m1 in self.items():
            for (b0, b1, b2), m2 in other.items():
                w = (a0 + b0, a1 + b1, a2 + b2)
                raw[w] = get(w, 0) + m1 * m2
        # sums of normalized weights have min >= 0; distinct sums can still
        # share a normal form, e.g. (1, 1, 1) and (0, 0, 0)
        norm = {}
        get = norm.get
        for w, m in raw.items():
            low = min(w)
            if low:
                w = (w[0] - low, w[1] - low, w[2] - low)
            norm[w] = get(w, 0) + m
        out = Character()
        out.update((w, m) for w, m in norm.items() if m)
        return out

    def dual(self):
        return Character({normalize((-w[0], -w[1], -w[2])): m for w, m in self.items()})

    def is_weyl_symmetric(self):
        for w, m in self.items():
            for s in permutations(w):
                if self.get(normalize(s), 0) != m:
                    return False
        return True

    def is_genuine(self):
        return all(m >= 0 for m in self.values())


def char_trivial():
    return Character({(0, 0, 0): 1})


def dim_irrep(a, b=None):
    """Dimension of the irreducible labelled (a, b): (m+1)(n+1)(m+n+2)/2."""
    if b is None:
        a, b = a
    if not (a >= b >= 0):
        raise ValueError("need a >= b >= 0")
    m, n = a - b, b
    return (m + 1) * (n + 1) * (m + n + 2) // 2


def dual_weight(a, b=None):
    """Dual irreducible label: (a, b) -> (a, a-b)."""
    if b is None:
        a, b = a
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

    Repeatedly takes the lexicographically greatest support weight on
    sorted-descending triples (dominant by Weyl symmetry) and subtracts.
    Raises on non-Weyl-symmetric input; result reassembles exactly.
    """
    rem = Character(c)
    out = []
    while rem:
        w = max(rem, key=lambda t: sorted(t, reverse=True))
        ab = dominant_pair(w)
        mult = rem.get((ab[0], ab[1], 0), 0)
        if mult == 0:
            raise ValueError("character is not Weyl-symmetric")
        rem = rem - weyl_character(*ab).scale(mult)
        out.append((ab, mult))
        if len(out) > 100000:
            raise ValueError("decomposition does not terminate; input not Weyl-symmetric?")
    # validate Weyl symmetry via exact reassembly
    check = Character()
    for ab, m in out:
        check = check + weyl_character(*ab).scale(m)
    if check != Character(c):
        raise ValueError("character is not Weyl-symmetric")
    out.sort(key=lambda t: (-t[0][0], -t[0][1]))
    return out


def multiplicity(c, ab):
    """Coefficient of the irreducible (a, b) in the decomposition of c."""
    for pair, m in decompose(c):
        if pair == tuple(ab):
            return m
    return 0


def from_modules(pairs):
    """Character of a direct sum given as [(a, b), ...] or [((a, b), mult), ...]."""
    c = Character()
    for item in pairs:
        if len(item) == 2 and isinstance(item[0], tuple):
            (a, b), m = item
        else:
            (a, b), m = item, 1
        c = c + weyl_character(a, b).scale(m)
    return c


def adams(k, c):
    """k-th Adams operation: every weight w scaled to k*w."""
    if k < 1:
        raise ValueError("k >= 1")
    return Character({(k * w[0], k * w[1], k * w[2]): m for w, m in c.items()})


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
            term = psums[i] * xs[k - i]
            acc = acc - term if alternating and i % 2 == 0 else acc + term
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
        term = hs[a + i] * es[b - i]
        acc = acc + (term if i % 2 == 0 else -term)
    return acc

