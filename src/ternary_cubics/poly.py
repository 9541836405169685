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
are ints or Fractions.  The a-index convention is graded-lex on x1 > x2 > x3:
a0 <-> x1^3, a1 <-> x1^2 x2, ..., a9 <-> x3^3.
"""

from fractions import Fraction
from math import gcd

# Degree-3 exponent triples in graded-lex order; A_EXPS[r] is the x-monomial
# (and u-monomial weight) of a_r.
A_EXPS = [
    (3, 0, 0), (2, 1, 0), (2, 0, 1), (1, 2, 0), (1, 1, 1),
    (1, 0, 2), (0, 3, 0), (0, 2, 1), (0, 1, 2), (0, 0, 3),
]
A_INDEX = {e: r for r, e in enumerate(A_EXPS)}

# q1..q6 index the conic Q = q1 x1^2 + q2 x2^2 + q3 x1x2 + q4 x1x3
# + q5 x2x3 + q6 x3^2 (its affine form sets x3 = 1).
Q_EXPS = [(2, 0, 0), (0, 2, 0), (1, 1, 0), (1, 0, 1), (0, 1, 1), (0, 0, 2)]
Q_INDEX = {e: i for i, e in enumerate(Q_EXPS)}

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
    """Canonical monomial from (var, exp) pairs: merged, sorted, no zeros."""
    acc = {}
    for v, e in pairs:
        if e:
            acc[v] = acc.get(v, 0) + e
    return tuple(sorted(acc.items(), key=lambda t: VAR_RANK[t[0]]))


def mono_mul(m1, m2):
    if not m1:
        return m2
    if not m2:
        return m1
    return monomial(list(m1) + list(m2))


def mono_weight(m):
    w = [0, 0, 0]
    for v, e in m:
        wv = VAR_WEIGHTS[v]
        w[0] += e * wv[0]
        w[1] += e * wv[1]
        w[2] += e * wv[2]
    return tuple(w)


def mono_degree(m, families=None):
    if families is None:
        return sum(e for _, e in m)
    return sum(e for v, e in m if var_family(v) in families)


def _mono_sort_key(m):
    # graded-lex over the fixed variable order: higher degree first, then
    # lexicographically larger exponent vector first
    vec = [0] * len(VAR_ORDER)
    for v, e in m:
        vec[VAR_RANK[v]] = e
    return (-sum(vec), [-x for x in vec])


class Poly:
    """Sparse polynomial: dict monomial -> nonzero coefficient."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {}
        if terms:
            for m, c in (terms.items() if isinstance(terms, dict) else terms):
                if c:
                    c0 = self.terms.get(m, 0) + c
                    if c0:
                        self.terms[m] = c0
                    else:
                        self.terms.pop(m, None)

    @staticmethod
    def const(c):
        return Poly({(): c} if c else {})

    @staticmethod
    def var(v, e=1):
        return Poly({monomial([(v, e)]): 1})

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Poly.const(other)
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Poly.const(other)
        out = dict(self.terms)
        for m, c in other.terms.items():
            c0 = out.get(m, 0) + c
            if c0:
                out[m] = c0
            else:
                out.pop(m, None)
        p = Poly()
        p.terms = out
        return p

    __radd__ = __add__

    def __neg__(self):
        p = Poly()
        p.terms = {m: -c for m, c in self.terms.items()}
        return p

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Poly.const(other)
        return self + (-other)

    def __rsub__(self, other):
        return Poly.const(other) - self

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            if other == 0:
                return Poly()
            p = Poly()
            p.terms = {m: c * other for m, c in self.terms.items()}
            return p
        out = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = mono_mul(m1, m2)
                c = out.get(m, 0) + c1 * c2
                if c:
                    out[m] = c
                else:
                    out.pop(m, None)
        p = Poly()
        p.terms = out
        return p

    __rmul__ = __mul__

    def __pow__(self, n):
        out = Poly.const(1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base if n > 1 else base
            n >>= 1
        return out

    def degree(self, families=None):
        if not self.terms:
            return 0
        return max(mono_degree(m, families) for m in self.terms)

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
        out = Poly()
        cache = {}
        for m, c in self.terms.items():
            term = Poly.const(c)
            for v, e in m:
                if v in assignment:
                    key = (v, e)
                    if key not in cache:
                        rep = assignment[v]
                        if not isinstance(rep, Poly):
                            rep = Poly.const(rep)
                        cache[key] = rep ** e
                    term = term * cache[key]
                else:
                    term = term * Poly.var(v, e)
            out = out + term
        return out

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
            out.setdefault(inner, Poly())
            out[inner] = out[inner] + Poly({outer: c})
        return out

    def content_and_primitive(self):
        """(content, primitive part) for integer polynomials.

        Clears Fraction denominators first; the primitive part has integer
        coefficients with gcd 1 and positive leading coefficient in
        graded-lex order.
        """
        if not self.terms:
            return Fraction(0), Poly()
        coeffs = [Fraction(c) for c in self.terms.values()]
        denom = 1
        for c in coeffs:
            denom = denom * c.denominator // gcd(denom, c.denominator)
        ints = {m: int(c * denom) for m, c in self.terms.items()}
        g = 0
        for c in ints.values():
            g = gcd(g, c)
        lead = min(ints, key=_mono_sort_key)
        sign = 1 if ints[lead] > 0 else -1
        prim = Poly({m: sign * c // g for m, c in ints.items()})
        return Fraction(sign * g, denom), prim

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


def linear_form(fam, xs=("x1", "x2", "x3")):
    """fam1*xs[0] + fam2*xs[1] + fam3*xs[2], e.g. b1*x1 + b2*x2 + b3*x3."""
    acc = Poly()
    for i, xv in enumerate(xs):
        acc = acc + Poly.var(f"{fam}{i + 1}") * Poly.var(xv)
    return acc


def generic_cubic():
    """The trace form: sum a_r x^(exponent of r)."""
    acc = Poly()
    for r, e in enumerate(A_EXPS):
        m = monomial([(f"a{r}", 1)] + [(f"x{i + 1}", e[i]) for i in range(3)])
        acc = acc + Poly({m: 1})
    return acc


def generic_quadric():
    """sum q_alpha x^alpha over the six degree-2 monomials."""
    acc = Poly()
    for i, e in enumerate(Q_EXPS):
        m = monomial([(f"q{i + 1}", 1)] + [(f"x{j + 1}", e[j]) for j in range(3)])
        acc = acc + Poly({m: 1})
    return acc
