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

from . import ideals
from .characters import (Character, _hook, decompose, dim_irrep, dual_weight,
                         ext_power, ext_powers, from_modules, multiplicity,
                         sym_power, sym_powers, weyl_character)

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
    coeffs = numerator(locus)
    mult = 0
    while True:
        if any(coeffs) and sum(coeffs) == 0:
            # divide by (1 - t): quotient q with coeffs[k] = q[k] - q[k-1]
            q = []
            acc = 0
            for c in coeffs[:-1]:
                acc += c
                q.append(acc)
            coeffs = q
            mult += 1
        else:
            return mult


def hilbert_consistency(locus, lmax=8, prime=None, seed=0):
    """Compare numerator coefficients with evaluation ranks for l = 1..lmax."""
    kwargs = {} if prime is None else {"prime": prime}
    report = []
    for ell in range(1, lmax + 1):
        expected = hilbert_from_numerator(locus, ell)
        actual = ideals.hilbert_value(locus, ell, seed=seed, **kwargs)
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

IDENTITY_NAMES = ("Z1", "Y1", "Z40", "Y41", "NEG1", "DELTA1",
                  "VER2", "VER3", "DELTAH", "TACT61", "EMPTY82")


def _row_sum(ell):
    """sum_{p=-9}^{-3} (-1)^p dual(sym_{-(2p+3)}V) (x) dual(sym_{-(p+3)}V)
    (x) hook(ell, -p)(char S_3)."""
    vs = sym_powers(15, weyl_character(1, 0))
    s3 = weyl_character(*S3)
    hs = sym_powers(ell + 9, s3)
    es = ext_powers(9, s3)
    total = Character()
    for p in range(-9, -2):
        term = (vs[-(2 * p + 3)].dual()
                * vs[-(p + 3)].dual()
                * _hook(ell, -p, hs, es))
        total = total + term if (-1) ** p > 0 else total - term
    return total


def _sigma(*pairs):
    return from_modules(list(pairs))


def spectral_identity(name):
    """Evaluate one catalog identity; returns a report dict with ok flag."""
    if name == "Z1":
        left = _row_sum(4)
        right = _sigma((11, 1)) - _sigma((6, 6), (6, 3), (6, 0), (5, 1),
                                         (4, 2), (0, 0))
        ok = left == right
    elif name == "Y1":
        left = _row_sum(5)
        right = _sigma((14, 1)) - (_sigma((9, 6), (9, 3), (9, 0), (8, 1),
                                          (7, 5), (6, 3), (5, 4), (5, 1),
                                          (3, 3), (3, 0))
                                   + _sigma((7, 2)).scale(2))
        ok = left == right
    elif name == "Z40":
        left = module_character("neq", 4, 0) - module_character("neq", 3, 1)
        right = _sigma((6, 6)) - _sigma((4, 2), (3, 3), (2, 1))
        ok = left == right
    elif name == "Y41":
        left = module_character("neq", 3, 2) + _sigma((7, 5), (5, 4), (3, 3))
        right = module_character("neq", 4, 1) + _sigma((4, 2), (2, 1), (0, 0))
        ok = left == right
    elif name == "NEG1":
        left = _sigma((2, 1))
        right = (module_character("neq", 4, 5)
                 - module_character("neq", 4, 6) * weyl_character(*S3).dual())
        ok = left == right
    elif name == "DELTA1":
        left = module_character("delta", 4, 8) * weyl_character(*S3).dual()
        right = module_character("delta", 4, 7)
        ok = left == right
    elif name in ("VER2", "VER3"):
        ell = 2 if name == "VER2" else 3
        s3 = weyl_character(*S3)
        left = sym_power(ell, s3) - weyl_character(3 * ell, 0)
        right = (_sigma((4, 2)) if ell == 2
                 else _sigma((7, 2), (6, 3), (3, 3), (3, 0)))
        ok = left == right
    elif name == "DELTAH":
        s3 = weyl_character(*S3)
        ok = True
        detail = {}
        for ell in range(3, 7):
            diff = sym_power(ell, s3) - sym_power(3, weyl_character(ell, 0))
            dec = decompose(diff)
            detail[ell] = dec
            if any(m < 0 for _, m in dec):
                ok = False
        return {"name": name, "ok": ok, "detail": {k: v for k, v in detail.items()}}
    elif name == "TACT61":
        prod = weyl_character(2, 1) * weyl_character(3, 3)
        dec = decompose(prod)
        tens = [(ab, m) for ab, m in dec if dim_irrep(*ab) == 10]
        ok = tens and all(ab == (3, 3) for ab, _ in tens)
        return {"name": name, "ok": bool(ok), "detail": dec}
    elif name == "EMPTY82":
        s3 = weyl_character(*S3)
        sym2 = sym_power(2, s3)
        m0 = multiplicity(_sigma((5, 4), (3, 3)) * sym2, (0, 0))
        m1 = multiplicity(_sigma((4, 2), (3, 3), (2, 1)) * sym2, (0, 0))
        ok = m0 == 0 and m1 >= 1
        return {"name": name, "ok": ok, "detail": {"m0": m0, "m1": m1}}
    else:
        raise ValueError(f"unknown identity {name!r}; have {IDENTITY_NAMES}")
    report = {"name": name, "ok": ok}
    if not ok:
        diff = left - right
        report["difference"] = {w: m for w, m in diff.items() if m}
    return report


def all_identities():
    return [spectral_identity(name) for name in IDENTITY_NAMES]
