"""Published Betti tables, syzygy-module ledgers, and consistency checks.

The ledger (data/published_tables.json) records, for each locus, the Betti
numbers dim M_{j,p} of the minimal resolution of its ideal and the lists of
irreducibles identified for each module.  Everything here is a cross-check:

  * ledger_dim_check    -- each table entry equals the sum of its irrep dims
  * numerator           -- the K-polynomial of R/I from the Betti table; its
                           vanishing order at t = 1 is the codimension
  * hilbert_consistency -- numerator/(1-t)^10 coefficients against the
                           evaluation ranks of ideals.hilbert_value
  * duality_check       -- the dual symmetries of the Veronese and the
                           triangle resolutions
  * eagon_northcott_terms -- the resolution of the concurrent-lines locus as
                           a rank variety
  * spectral_identity   -- the character identities that pinned down the
                           module lists in the first place
"""

import json
from functools import lru_cache
from importlib import resources
from math import comb

from . import ideals, linalg
from .characters import (_convolve, _from_lattice, _hook, _powers, decompose, dim_irrep,
                         dual_weight, ext_power, from_modules, multiplicity, sym_power,
                         weyl_character)

S3 = (3, 0)   # the cubics S_3 as a dominant weight


@lru_cache(maxsize=1)
def tables():
    text = resources.files("ternary_cubics.data").joinpath(
        "published_tables.json").read_text()
    raw = json.loads(text)
    out = {}
    for locus, entry in raw.items():
        betti = {(int(j), int(p)): v
                 for j, row in entry["betti"].items() for p, v in row.items()}
        modules = {}
        for key, lst in entry["modules"].items():
            j, p = key.split(",")
            modules[(int(j), int(p))] = [tuple(ab) for ab in lst]
        out[locus] = {"dim": entry["dim"], "betti": betti, "modules": modules}
    return out


def betti_table(locus):
    return tables()[locus]["betti"]


def module_list(locus, j, p):
    return tables()[locus]["modules"][(j, p)]


def module_character(locus, j, p):
    return from_modules(module_list(locus, j, p))


def ledger_dim_check():
    """Every Betti entry equals the total dimension of its module list."""
    report = []
    for locus, entry in tables().items():
        for (j, p), value in entry["betti"].items():
            mods = entry["modules"].get((j, p))
            total = sum(dim_irrep(a, b) for a, b in mods) if mods else None
            report.append({"locus": locus, "j": j, "p": p,
                           "table": value, "modules": total,
                           "ok": total == value})
    return report


# ---------------------------------------------------------------------------
# K-polynomial and Hilbert function
# ---------------------------------------------------------------------------

def numerator(locus):
    """N(t) for R/I as a coefficient list: N = 1 + sum (-1)^{p+1} b_{jp} t^{j+p}."""
    betti = betti_table(locus)
    top = max(j + p for j, p in betti)
    coeffs = [0] * (top + 1)
    coeffs[0] = 1
    for (j, p), value in betti.items():
        coeffs[j + p] += (-1) ** (p + 1) * value
    return coeffs


def hilbert_from_numerator(locus, degree):
    """Coefficient of t^degree in N(t) / (1-t)^10."""
    coeffs = numerator(locus)
    return sum(c * comb(degree - k + 9, 9)
               for k, c in enumerate(coeffs) if k <= degree)


def numerator_multiplicity(locus):
    """Vanishing order of N(t) at t = 1; equals the codimension 9 - dim."""
    c = numerator(locus)
    # N(t) = sum_k (sum_i c_i C(i, k)) (t - 1)^k, and N is not zero because c_0 = 1
    return next(k for k in range(len(c)) if sum(x * comb(i, k) for i, x in enumerate(c)))


def hilbert_consistency(locus, lmax=8, prime=linalg.DEFAULT_PRIMES[0], seed=0):
    """Compare numerator coefficients with evaluation ranks for l = 1..lmax."""
    report = []
    for ell in range(1, lmax + 1):
        expected = hilbert_from_numerator(locus, ell)
        actual = ideals.hilbert_value(locus, ell, prime=prime, seed=seed)
        report.append({"locus": locus, "degree": ell,
                       "expected": expected, "actual": actual,
                       "ok": expected == actual})
    return report


# ---------------------------------------------------------------------------
# dualities
# ---------------------------------------------------------------------------

def _dual_multiset(mods):
    return sorted(dual_weight(a, b) for a, b in mods)


def duality_check():
    """The published dual symmetries, as multisets under (a,b) -> (a, a-b)."""
    checks = []

    def record(name, left, right):
        checks.append({"check": name, "ok": sorted(left) == sorted(right),
                       "left": sorted(left), "right": sorted(right)})

    # Veronese: M_{2,5-p} is dual to M_{2,p}; the central lists are self-dual
    for p in range(6):
        record(f"equiv 2,{5 - p} = dual 2,{p}",
               module_list("equiv", 2, 5 - p),
               _dual_multiset(module_list("equiv", 2, p)))
    record("equiv 3,6 self-dual", module_list("equiv", 3, 6),
           _dual_multiset(module_list("equiv", 3, 6)))

    # triangle locus
    record("delta 4,2 = dual 4,4", module_list("delta", 4, 2),
           _dual_multiset(module_list("delta", 4, 4)))
    record("delta dual 4,5 = 4,1 + {00}",
           _dual_multiset(module_list("delta", 4, 5)),
           module_list("delta", 4, 1) + [(0, 0)])
    record("delta 4,3 self-dual", module_list("delta", 4, 3),
           _dual_multiset(module_list("delta", 4, 3)))
    return checks


# ---------------------------------------------------------------------------
# Eagon--Northcott terms for the concurrent-lines locus
# ---------------------------------------------------------------------------

def eagon_northcott_terms():
    """ext^{3+j}(char S_2) (x) sym_j(char V) for j = 0..3, decomposed.

    These are the terms resolving a rank variety of a 3 x 6 matrix of linear
    forms; they must reproduce the module lists of the concurrent-lines locus.
    """
    s2 = weyl_character(2, 0)
    v = weyl_character(1, 0)
    out = []
    for j in range(4):
        ch = ext_power(3 + j, s2) * sym_power(j, v)
        out.append(decompose(ch))
    return out


def eagon_northcott_check():
    report = []
    for j, dec in enumerate(eagon_northcott_terms()):
        got = sorted(ab for ab, m in dec for _ in range(m))
        expected = sorted(module_list("y", 3, j))
        report.append({"j": j, "expected": expected, "got": got,
                       "ok": got == expected})
    return report


# ---------------------------------------------------------------------------
# spectral-sequence character identities
# ---------------------------------------------------------------------------

@lru_cache(maxsize=1)
def _row_powers():
    """Lattice triples of dual Sym^0..15 V, Sym^0..14 S_3 and wedge^0..9 S_3:
    built once, only read."""
    s3 = weyl_character(*S3)
    duals = [(-x, -y, m) for x, y, m in _powers(15, weyl_character(1, 0), False)]
    return duals, _powers(14, s3, False), _powers(9, s3, True)


def _row_sum(ell):
    """sum_{p=-9}^{-3} (-1)^p dual(sym_{-(2p+3)}V) (x) dual(sym_{-(p+3)}V)
    (x) hook(ell, -p)(char S_3), for ell <= 5: the seven terms added into one
    _convolve accumulator, on the lattice triples of _row_powers, and one
    Character built from the sum."""
    dvs, hs, es = _row_powers()
    return _from_lattice(*_convolve(
        [((-1) ** -p, _convolve([(1, dvs[-(2 * p + 3)], dvs[-(p + 3)])]), _hook(ell, -p, hs, es))
         for p in range(-9, -2)]))


def _sigma(*pairs):
    return from_modules(list(pairs))


def _equal(left, right):
    """The report of the identity left == right, with the difference if it fails."""
    if left == right:
        return {"ok": True}
    return {"ok": False, "difference": {w: m for w, m in (left - right).items() if m}}


def _deltah():
    """sym_l(S_3) - sym_3(S_l) is a genuine representation for l = 3..6."""
    s3 = weyl_character(*S3)
    detail = {ell: decompose(sym_power(ell, s3) - sym_power(3, weyl_character(ell, 0)))
              for ell in range(3, 7)}
    return {"ok": all(m >= 0 for dec in detail.values() for _, m in dec), "detail": detail}


def _tact61():
    """Sigma_21 (x) Sigma_33 has a 10-dimensional summand, and each one is Sigma_33."""
    dec = decompose(weyl_character(2, 1) * weyl_character(3, 3))
    tens = [ab for ab, _ in dec if dim_irrep(*ab) == 10]
    return {"ok": bool(tens) and all(ab == (3, 3) for ab in tens), "detail": dec}


def _empty82():
    """(Sigma_54 + Sigma_33) (x) sym_2(S_3) has no invariant; with Sigma_42 + Sigma_33
    + Sigma_21 in place of the first factor it has one."""
    sym2 = sym_power(2, weyl_character(*S3))
    m0 = multiplicity(_sigma((5, 4), (3, 3)) * sym2, (0, 0))
    m1 = multiplicity(_sigma((4, 2), (3, 3), (2, 1)) * sym2, (0, 0))
    return {"ok": m0 == 0 and m1 >= 1, "detail": {"m0": m0, "m1": m1}}


# name -> a function returning the identity's report; the order is IDENTITY_NAMES
_IDENTITIES = {
    "Z1": lambda: _equal(
        _row_sum(4),
        _sigma((11, 1)) - _sigma((6, 6), (6, 3), (6, 0), (5, 1), (4, 2), (0, 0))),
    "Y1": lambda: _equal(
        _row_sum(5),
        _sigma((14, 1)) - (_sigma((9, 6), (9, 3), (9, 0), (8, 1), (7, 5), (6, 3),
                                  (5, 4), (5, 1), (3, 3), (3, 0))
                           + _sigma((7, 2)).scale(2))),
    "Z40": lambda: _equal(
        module_character("neq", 4, 0) - module_character("neq", 3, 1),
        _sigma((6, 6)) - _sigma((4, 2), (3, 3), (2, 1))),
    "Y41": lambda: _equal(
        module_character("neq", 3, 2) + _sigma((7, 5), (5, 4), (3, 3)),
        module_character("neq", 4, 1) + _sigma((4, 2), (2, 1), (0, 0))),
    "NEG1": lambda: _equal(
        _sigma((2, 1)),
        module_character("neq", 4, 5)
        - module_character("neq", 4, 6) * weyl_character(*S3).dual()),
    "DELTA1": lambda: _equal(
        module_character("delta", 4, 8) * weyl_character(*S3).dual(),
        module_character("delta", 4, 7)),
    "VER2": lambda: _equal(
        sym_power(2, weyl_character(*S3)) - weyl_character(6, 0), _sigma((4, 2))),
    "VER3": lambda: _equal(
        sym_power(3, weyl_character(*S3)) - weyl_character(9, 0),
        _sigma((7, 2), (6, 3), (3, 3), (3, 0))),
    "DELTAH": _deltah,
    "TACT61": _tact61,
    "EMPTY82": _empty82,
}

IDENTITY_NAMES = tuple(_IDENTITIES)


def spectral_identity(name):
    """Evaluate one catalog identity; returns a report dict with ok flag."""
    if name not in _IDENTITIES:
        raise ValueError(f"unknown identity {name!r}; have {IDENTITY_NAMES}")
    return {"name": name, **_IDENTITIES[name]()}


def all_identities():
    return [spectral_identity(name) for name in IDENTITY_NAMES]
