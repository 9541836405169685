"""Exact sparse multivariate polynomials over named variable families.

Variable families and arities:

    a(10)  coefficients of the cubic, a0..a9
    x(3) y(3)   point variables (y are 'copies' used for syzygy expressions)
    u(3) v(3)   line variables
    b(3) c(3) d(3) m(3) k(3)   linear-form parameters of the locus maps
    q(6)   quadratic-form parameters, q1..q6 <-> x1^2, x2^2, x1x2, x1x3, x2x3, x3^2
    s(1) t(1)  scalar parameters of the concurrent-lines family

Each variable carries a torus weight; monomial weights are the exponent-
weighted sums, and every locus substitution map is weight-preserving.

Monomials are stored as sorted tuples of (variable, exponent); coefficients
are ints or Fractions.  monomial() owns exponent arithmetic: it takes signed
exponents and drops the variables whose exponents sum to zero, so a
derivative or a division rewrites each term as one (monomial, coefficient)
pair.  The Poly constructor is the one place that merges such pairs into
canonical terms (equal monomials summed, zero coefficients dropped).

The a-index convention is graded-lex on x1 > x2 > x3: a0 <-> x1^3,
a1 <-> x1^2 x2, ..., a9 <-> x3^3.
"""

from fractions import Fraction
from itertools import chain
from numbers import Integral

# Degree-3 exponent triples in graded-lex order; A_EXPS[r] is the x-monomial
# (and u-monomial weight) of a_r.
A_EXPS = [
    (3, 0, 0), (2, 1, 0), (2, 0, 1), (1, 2, 0), (1, 1, 1),
    (1, 0, 2), (0, 3, 0), (0, 2, 1), (0, 1, 2), (0, 0, 3),
]
A_INDEX = {e: r for r, e in enumerate(A_EXPS)}


def cubic_point(a_values):
    """a_values as a tuple of 10 ints, the coefficients a0..a9 of a cubic.

    Anything else (another length, a float entry, not a sequence) raises
    ValueError, rather than being evaluated as far as it goes.
    """
    try:
        point = tuple(a_values)
    except TypeError:
        point = ()
    if len(point) != 10 or not all(isinstance(a, Integral) for a in point):
        raise ValueError(f"a cubic point is 10 integer coefficients a0..a9, got {a_values!r}")
    return tuple(map(int, point))


# q1..q6 index the conic Q = q1 x1^2 + q2 x2^2 + q3 x1x2 + q4 x1x3
# + q5 x2x3 + q6 x3^2 (its affine form sets x3 = 1).
Q_EXPS = [(2, 0, 0), (0, 2, 0), (1, 1, 0), (1, 0, 1), (0, 1, 1), (0, 0, 2)]

_E = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]


def _build_vars():
    order = []
    weights = {}
    for r in range(10):
        v = f"a{r}"
        order.append(v)
        weights[v] = A_EXPS[r]
    for fam in ("x", "y"):
        for i in range(3):
            v = f"{fam}{i + 1}"
            order.append(v)
            weights[v] = tuple(-e for e in _E[i])
    for fam in ("u", "v", "b", "c", "d", "m", "k"):
        for i in range(3):
            v = f"{fam}{i + 1}"
            order.append(v)
            weights[v] = _E[i]
    for i in range(6):
        v = f"q{i + 1}"
        order.append(v)
        weights[v] = Q_EXPS[i]
    for v in ("s", "t"):
        order.append(v)
        weights[v] = (0, 0, 0)
    return order, weights


VAR_ORDER, VAR_WEIGHTS = _build_vars()
VAR_RANK = {v: i for i, v in enumerate(VAR_ORDER)}


def var_family(v):
    return v[0] if v not in ("s", "t") else v


def monomial(pairs):
    """Canonical monomial from (var, exp) pairs: summed, sorted, zero sums dropped.

    Exponents may be negative: (x1, -1) divides by x1.
    """
    acc = {}
    for v, e in pairs:
        acc[v] = acc.get(v, 0) + e
    return tuple(sorted(((v, e) for v, e in acc.items() if e),
                        key=lambda t: VAR_RANK[t[0]]))


def mono_mul(m1, m2):
    if not m1:
        return m2
    if not m2:
        return m1
    return monomial(list(m1) + list(m2))


def split_xu(monos):
    """(the x and u part, the other variables) of each monomial in turn, both
    in VAR_ORDER."""
    for m in monos:
        inner, outer = [], []
        for ve in m:
            (inner if ve[0][0] in "xu" else outer).append(ve)
        yield tuple(inner), tuple(outer)


def mono_weight(m):
    w = [0, 0, 0]
    for v, e in m:
        wv = VAR_WEIGHTS[v]
        w[0] += e * wv[0]
        w[1] += e * wv[1]
        w[2] += e * wv[2]
    return tuple(w)


def _mono_sort_key(m):
    # graded-lex over the fixed variable order: higher degree first, then
    # lexicographically larger exponent vector first
    vec = [0] * len(VAR_ORDER)
    for v, e in m:
        vec[VAR_RANK[v]] = e
    return (-sum(vec), [-x for x in vec])


def _poly(x):
    """x itself if a Poly; an int or Fraction as a constant Poly."""
    return Poly.const(x) if isinstance(x, (int, Fraction)) else x


class Poly:
    """Sparse polynomial: dict monomial -> nonzero coefficient.

    The constructor is the one place that merges terms: every result, from
    arithmetic or from a rewrite of the terms, is built by passing it
    (monomial, coefficient) pairs, which it sums per monomial, dropping
    the zeros.  A monomial's first coefficient is stored as it is.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=()):
        merged = self.terms = {}
        for m, c in (terms.items() if isinstance(terms, dict) else terms):
            if c:
                old = merged.get(m)
                if old is not None:
                    c += old
                if c:
                    merged[m] = c
                else:
                    del merged[m]

    @staticmethod
    def const(c):
        return Poly({(): c})

    @staticmethod
    def var(v, e=1):
        return Poly({monomial([(v, e)]): 1})

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return self.terms == _poly(other).terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __add__(self, other):
        return Poly(chain(self.terms.items(), _poly(other).terms.items()))

    __radd__ = __add__

    def __neg__(self):
        return self * -1

    def __sub__(self, other):
        return self + -_poly(other)

    def __rsub__(self, other):
        return _poly(other) - self

    def __mul__(self, other):
        other = _poly(other)
        return Poly((mono_mul(m1, m2), c1 * c2)
                    for m1, c1 in self.terms.items() for m2, c2 in other.terms.items())

    __rmul__ = __mul__

    def __pow__(self, n):
        if n < 0:
            raise ValueError(f"negative power {n} of a polynomial")
        out = Poly.const(1)
        for _ in range(n):
            out = out * self
        return out

    def weight(self):
        """Common torus weight of all terms; raises if mixed."""
        ws = {mono_weight(m) for m in self.terms}
        if len(ws) > 1:
            raise ValueError(f"mixed weights {ws}")
        return ws.pop() if ws else (0, 0, 0)

    def substitute(self, assignment):
        """Replace variables by polynomials (exact expansion and collection).

        `assignment` maps variable name -> Poly | int | Fraction; unassigned
        variables stay.
        """
        out = []
        for m, c in self.terms.items():
            term = Poly.const(c)
            for v, e in m:
                term = term * (_poly(assignment[v]) ** e if v in assignment else Poly.var(v, e))
            out.extend(term.terms.items())
        return Poly(out)

    def evaluate(self, values, p=None):
        """Evaluate at scalar values (variable -> number); mod p if given."""
        acc = 0
        for m, c in self.terms.items():
            t = c
            for v, e in m:
                if v not in values:
                    raise KeyError(f"no value for {v}")
                t *= values[v] ** e
                if p is not None:
                    t %= p
            acc += t
            if p is not None:
                acc %= p
        return acc

    def collect(self, families):
        """Partition terms by their sub-monomial in `families`.

        Returns {sub-monomial: coefficient Poly in the remaining variables};
        reassembly (sum of sub * coeff) equals self exactly.
        """
        fams = set(families)
        out = {}
        for m, c in self.terms.items():
            inner = tuple((v, e) for v, e in m if var_family(v) in fams)
            outer = tuple((v, e) for v, e in m if var_family(v) not in fams)
            out.setdefault(inner, []).append((outer, c))
        return {inner: Poly(pairs) for inner, pairs in out.items()}

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda t: _mono_sort_key(t[0]))

    def to_text(self):
        """Deterministic serialization, one `coeff * mono` summand per line."""
        lines = []
        for m, c in self.sorted_terms():
            mono_s = "*".join(f"{v}^{e}" if e > 1 else v for v, e in m)
            lines.append(f"{c} * {mono_s}" if mono_s else f"{c}")
        return "\n".join(lines)

    def __repr__(self):
        if not self.terms:
            return "Poly(0)"
        return "Poly(" + " + ".join(
            f"{c}*{''.join(f'{v}^{e}' if e > 1 else v for v, e in m)}" if m else str(c)
            for m, c in self.sorted_terms()[:8]
        ) + ("..." if len(self.terms) > 8 else "") + ")"


def linear_form(fam):
    """fam1*x1 + fam2*x2 + fam3*x3, e.g. b1*x1 + b2*x2 + b3*x3.

    Always in x; a caller that needs a form in other point variables (y)
    renames this one.
    """
    return Poly((monomial([(f"{fam}{i}", 1), (f"x{i}", 1)]), 1) for i in (1, 2, 3))


def generic_cubic():
    """The trace form: sum a_r x^(exponent of r)."""
    return Poly((monomial([(f"a{r}", 1)] + [(f"x{i + 1}", e[i]) for i in range(3)]), 1)
                for r, e in enumerate(A_EXPS))


def generic_quadric():
    """sum q_alpha x^alpha over the six degree-2 monomials."""
    return Poly((monomial([(f"q{i + 1}", 1)] + [(f"x{j + 1}", e[j]) for j in range(3)]), 1)
                for i, e in enumerate(Q_EXPS))
