"""Command-line interface.

Subcommands:

    char         irreducible dimensions and plethysm decompositions
    tableau      semistandard tableau counts and listings
    concomitant  the symbolic catalog: types, expansion sizes, evaluation
    locus        parameterizations and sample points
    ideal        graded kernels, characters, syzygies, Hilbert values
    betti        published tables and their internal consistency
    specseq      spectral-sequence character identities
    verify-all   the whole verification suite with a machine-readable report

A verify-all check is a function check(config) -> (ok, expected, actual):
ok is a bool, expected and actual are the report's strings. A check's own
parameters come first and `build_checks` binds them with functools.partial.
`run_verify_all` alone spells the verdict "pass" or "fail", and it turns an
exception a check raises into a failed row.
"""

import argparse
import contextlib
import csv
import io
import json
import random
import sys
import time
from fractions import Fraction
from functools import partial

from . import __version__, brackets, characters, ideals, linalg, loci, resolution, tableaux


def _primes(args):
    """The --prime values as given, or the defaults, validated by check_primes.

    With a single distinct prime, a one-line note on stderr says that
    multi-prime agreement is not checked.
    """
    primes = tuple(args.prime or linalg.DEFAULT_PRIMES)
    if len(linalg.check_primes(primes)) == 1:
        print(f"note: one prime ({primes[0]}); multi-prime agreement was not checked",
              file=sys.stderr)
    return primes


def _parse_cubic(text):
    """A named cubic, or the cubic of 10 comma-separated integer coefficients."""
    if text in loci.NAMED_CUBICS:
        return loci.NAMED_CUBICS[text]
    try:
        vals = tuple(int(x) for x in text.split(","))
    except ValueError:
        vals = ()
    if len(vals) != 10:
        raise ValueError(f"cubic {text!r} is neither a named cubic {sorted(loci.NAMED_CUBICS)} "
                         "nor 10 comma-separated integers")
    return vals


def _fmt_modules(dec):
    return " + ".join(f"{m}({a},{b})" if m > 1 else f"({a},{b})"
                      for (a, b), m in dec) or "0"


# ---------------------------------------------------------------------------
# simple subcommands
# ---------------------------------------------------------------------------

# decompose peels the dominant weights (a, b) with a <= A, where (A, B) is the
# highest weight of the character it decomposes: (A+1)(A+2)/2 candidates.
# decompose-sym 20 0 --power 3 and 3 0 --power 20 (A = 60, 1,891) pass, and
# A = 62 (2,016) and above fail before any character is built.
_MAX_CANDIDATE_WEIGHTS = 2000

# tableau list prints at most this many tableaux; count has a closed form
_MAX_LISTED_TABLEAUX = 10 ** 4


def cmd_char(args):
    dim = characters.dim_irrep(args.a, args.b)
    if args.action == "dim":
        print(dim)
        return 0
    if args.action == "tensor":
        characters.dim_irrep(args.a2, args.b2)
        top = args.a + args.a2
    elif args.action == "decompose-ext" and args.power > dim:
        top = args.a    # the exterior power is zero
    else:
        # Sym^k (a, b) has highest weight (ka, kb), and wedge^k's is no
        # greater; the generating product fills k + 1 layers even for a = 0
        top = max(args.a, args.power * max(args.a, 1))
    candidates = (top + 1) * (top + 2) // 2
    if candidates > _MAX_CANDIDATE_WEIGHTS:
        raise ValueError(f"char {args.action}: a highest weight (A, B) with A up to {top:,} "
                         f"gives {candidates:,} candidate weights, more than the bound of "
                         f"{_MAX_CANDIDATE_WEIGHTS:,}")
    if args.action == "decompose-sym":
        c = characters.sym_power(args.power, characters.weyl_character(args.a, args.b))
    elif args.action == "decompose-ext":
        c = characters.ext_power(args.power, characters.weyl_character(args.a, args.b))
    else:
        c = characters.weyl_character(args.a, args.b) * characters.weyl_character(args.a2, args.b2)
    print(_fmt_modules(characters.decompose(c)))
    return 0


def cmd_tableau(args):
    if args.m < 0 or args.n < 0:
        raise ValueError(f"tableau needs m, n >= 0, got {args.m}, {args.n}")
    count = characters.dim_irrep(args.m + args.n, args.n)
    if args.action == "count":
        print(count)
    elif count > _MAX_LISTED_TABLEAUX:
        raise ValueError(f"shape ({args.m + args.n}, {args.n}) has {count:,} tableaux, "
                         f"more than the bound of {_MAX_LISTED_TABLEAUX:,} for a listing")
    else:
        for t in tableaux.enumerate_tableaux(args.m, args.n):
            row1 = " ".join(map(str, t[0]))
            row2 = " ".join(map(str, t[1]))
            print(f"[{row1} | {row2}]")
    return 0


def cmd_concomitant(args):
    if args.action == "list":
        for name in sorted(brackets.CATALOG):
            t = brackets.validate(brackets.catalog(name))
            print(f"{name:18s} {t.as_tuple()}")
        return 0
    if args.name is None:
        raise ValueError(f"concomitant {args.action} requires a NAME; "
                         f"have {sorted(brackets.CATALOG)}")
    conc = brackets.catalog_concomitant(args.name)
    if args.action == "type":
        print(conc.ctype.as_tuple())
    elif args.action == "terms":
        print(len(conc.poly.terms))
    elif args.action == "eval":
        val = brackets.evaluate_at_cubic(conc, _parse_cubic(args.cubic))
        if not val:
            print(0)
        else:
            print(val.to_text())
    return 0


def cmd_locus(args):
    if args.action == "dims":
        for lid in loci.LOCI:
            print(f"{lid:6s} dim {loci.LOCUS_DIM[lid]}  generators in degree "
                  f"{loci.GENERATOR_DEGREES[lid]}")
    elif args.action == "sample":
        if args.locus is None:
            raise ValueError("locus sample requires --locus")
        pt = loci.sample(args.locus, seed=args.seed)
        print(",".join(map(str, pt)))
    elif args.action == "tact-invariant":
        print(loci.tact_polynomial().to_text())
    return 0


def cmd_ideal(args):
    primes = _primes(args)
    if args.action == "dim":
        gp = ideals.graded_kernel(args.locus, args.degree, primes)
        print(gp.dimension())
    elif args.action == "character":
        gp = ideals.graded_kernel(args.locus, args.degree, primes)
        print(_fmt_modules(gp.decomposition))
    elif args.action == "syzygy":
        sp = ideals.syzygy_kernel(args.locus, args.degree, primes)
        print(f"{sp.dimension()} = {_fmt_modules(sp.decomposition)}")
    elif args.action == "hilbert":
        values = {p: ideals.hilbert_value(args.locus, args.degree, prime=p, seed=args.seed)
                  for p in linalg.check_primes(primes)}
        if len(set(values.values())) > 1:
            raise linalg.UnluckyPrimeError(
                f"H({args.locus}, {args.degree}) differs between primes: {values}")
        print(values[primes[0]])
    elif args.action == "export":
        gp = ideals.graded_kernel(args.locus, args.degree, primes)
        print(json.dumps(ideals.piece_to_dict(gp), indent=2))
    return 0


def cmd_betti(args):
    if args.action == "table":
        betti = resolution.betti_table(args.locus)
        js = sorted({j for j, _ in betti})
        ps = range(max(p for _, p in betti) + 1)
        print("j\\p " + " ".join(f"{p:>5d}" for p in ps))
        for j in js:
            row = " ".join(f"{betti.get((j, p), ''):>5}" for p in ps)
            print(f"{j:>3d} {row}")
    elif args.action == "modules":
        for (j, p), mods in sorted(resolution.tables()[args.locus]["modules"].items()):
            print(f"M[{j},{p}] = " + " ".join(f"({a},{b})" for a, b in mods))
    elif args.action == "check":
        bad = [r for r in resolution.ledger_dim_check() if not r["ok"]]
        bad += [r for r in resolution.duality_check() if not r["ok"]]
        print("PASS" if not bad else f"FAIL {bad}")
        return 0 if not bad else 1
    elif args.action == "numerator":
        print(resolution.numerator(args.locus))
    return 0


def cmd_specseq(args):
    names = resolution.IDENTITY_NAMES if args.name == "all" else (args.name,)
    rc = 0
    for name in names:
        r = resolution.spectral_identity(name)
        print(f"{name}: {'PASS' if r['ok'] else 'FAIL ' + str(r)}")
        if not r["ok"]:
            rc = 1
    return rc


# ---------------------------------------------------------------------------
# verify-all
# ---------------------------------------------------------------------------

KERNEL_ANCHORS = [
    ("equiv", 2, 27, [((4, 2), 1)]),
    ("neq", 3, 20, [((3, 3), 1), ((3, 0), 1)]),
    ("y", 3, 20, [((3, 3), 1), ((3, 0), 1)]),
    ("delta", 4, 35, [((5, 1), 1)]),
    ("tact", 4, 1, [((0, 0), 1)]),
    ("tact", 5, 20, [((3, 3), 1), ((3, 0), 1)]),
    ("empty", 8, 35, [((5, 4), 1)]),
]

SYZYGY_ANCHORS = [
    ("equiv", 2, 105, [((5, 4), 1), ((5, 1), 1), ((4, 2), 1), ((2, 1), 1)]),
    ("neq", 3, 45, [((4, 2), 1), ((3, 3), 1), ((2, 1), 1)]),
    ("y", 3, 45, [((4, 2), 1), ((3, 3), 1), ((2, 1), 1)]),
    ("delta", 4, 119, [((6, 3), 1), ((6, 0), 1), ((4, 2), 1)]),
    ("empty", 8, 70, [((5, 4), 1), ((4, 2), 1), ((2, 1), 1)]),
]

CONCOMITANT_LOCI = [
    ("Phi222", "equiv", 2), ("Phi303", "neq", 3), ("Phi330", "neq", 3),
    ("Phi406", "neq", 4), ("Phi441", "delta", 4), ("Phi400", "tact", 4),
    ("Phi503", "tact", 5), ("Phi814", "empty", 8),
]


def _check_dimension_formula(config):
    for m in range(9):
        for n in range(9):
            formula = characters.dim_irrep(m + n, n)
            count = len(tableaux.enumerate_tableaux(m, n))
            if formula != count:
                return False, "formula == SSYT count", f"mismatch at ({m},{n})"
    return True, "formula == SSYT count for m,n <= 8", "all equal"


def _check_piece(compute, lid, deg, dim, dec, config):
    """Check that compute(lid, deg, primes) has dimension `dim` and decomposition `dec`."""
    piece = compute(lid, deg, config["primes"])
    got = (piece.dimension(), piece.decomposition)
    return (got == (dim, dec), f"{dim} = {_fmt_modules(dec)}",
            f"{got[0]} = {_fmt_modules(got[1])}")


def _check_weyl_orbits(lid, deg, config):
    """Eliminate every block, not only the dominant ones, and compare."""
    expected = "nullity constant on each S3 orbit"
    piece = ideals.graded_kernel(lid, deg, config["primes"])
    full = ideals.full_block_nullities(lid, deg, config["primes"])
    blocks = ideals.monomials_by_weight(deg)
    for w in sorted(blocks):
        d = tuple(sorted(w, reverse=True))
        got = (full.get(w, 0), full.get(d, 0), piece.block_nullities.get(w, 0))
        if len(set(got)) > 1:
            return (False, expected, f"block {w} nullity {got[0]}, dominant block "
                                     f"{d} {got[1]}, orbit-filled {got[2]}")
    orbits = sum(map(ideals.is_dominant, blocks))
    return True, expected, f"{len(blocks)} blocks in {orbits} orbits agree"


def _check_rows(rows, expected, passed, config):
    """Check that every row of the report rows() has "ok"; actual lists the bad rows."""
    bad = [r for r in rows() if not r["ok"]]
    return not bad, expected, str(bad or passed)


def _check_hilbert(lid, config):
    for seed in (config["seed"], config["seed"] + 1):
        for r in resolution.hilbert_consistency(lid, config["lmax"],
                                                prime=config["primes"][0], seed=seed):
            if not r["ok"]:
                return False, f"H({r['degree']}) = {r['expected']}", str(r["actual"])
    return True, f"numerator coefficients to degree {config['lmax']}", "all equal"


def _check_identity(name, config):
    r = resolution.spectral_identity(name)
    return r["ok"], "exact character identity", "equal" if r["ok"] else str(r)


def _check_codim(config):
    for lid in loci.LOCI:
        mult = resolution.numerator_multiplicity(lid)
        codim = 9 - loci.LOCUS_DIM[lid]
        if mult != codim:
            return False, f"{lid}: multiplicity {codim}", str(mult)
    return True, "(1-t)-multiplicity equals codimension", "all six agree"


def _check_concomitant_types(config):
    for name in sorted(brackets.CATALOG):
        conc = brackets.catalog_concomitant(name)
        declared = brackets.CATALOG_TYPES[name]
        if conc.is_zero:
            return False, f"{name} nonzero", "zero after expansion"
        if conc.ctype.as_tuple()[:3] != declared:
            return False, f"{name} type {declared}", str(conc.ctype.as_tuple())
    return True, "all catalog entries nonzero of declared type", "all ok"


def _check_isotypic(name, lid, config):
    ok = ideals.isotypic_match(name, lid)
    return ok, f"{name} in I({lid}) over Z", "member" if ok else "not a member"


def _check_vanishing(name, lid, config):
    p = config["primes"][0]
    points = [loci.sample(lid, seed=(config["seed"], name, k), p=p) for k in range(50)]
    vanishes = brackets.vanishes_at_cubics(brackets.catalog_concomitant(name), points, p)
    if not all(vanishes):
        return False, f"{name} = 0 on {lid}", f"nonzero at sample {vanishes.index(False)}"
    return True, f"{name} = 0 on 50 samples of {lid}", "vanishes"


def _check_hessian(config):
    conc = brackets.catalog_concomitant("Phi330")
    rng = random.Random(config["seed"])
    ratios = set()
    for _ in range(20):
        a = [rng.randint(-9, 9) for _ in range(10)]
        lhs = brackets.evaluate_at_cubic(conc, a)
        rhs = brackets.hessian_oracle(a)
        if not rhs:
            if lhs:
                return False, "proportional", "oracle zero, bracket nonzero"
            continue
        mo, c = next(iter(rhs.terms.items()))
        r = Fraction(lhs.terms.get(mo, 0), c)
        if lhs != rhs * r:
            return False, "proportional", "not proportional"
        ratios.add(r)
    if len(ratios) != 1:
        return False, "single global constant", f"ratios {sorted(ratios)}"
    return True, "bracket Hessian = c * partials determinant", f"c = {ratios.pop()}"


def _check_tact_formula(config):
    ok = loci.tact_polynomial() == loci.tact_printed_formula()
    return ok, "resultant route == 12-term polynomial", "identical" if ok else "differ"


def _check_aronhold(config):
    conc = brackets.catalog_concomitant("Phi400")
    z1 = brackets.evaluate_at_cubic(conc, loci.NAMED_CUBICS["fermat"])
    cube = tuple(1 if r == 0 else 0 for r in range(10))
    z2 = brackets.evaluate_at_cubic(conc, cube)
    rng = random.Random(config["seed"] + 7)
    z3 = brackets.evaluate_at_cubic(conc, [rng.randint(-9, 9) for _ in range(10)])
    ok = (not z1) and (not z2) and bool(z3)
    return (ok, "0 at Fermat and cube, nonzero generically",
            f"fermat={bool(z1)} cube={bool(z2)} random={bool(z3)}")


def _check_sym8_product(config):
    s3 = characters.weyl_character(3, 0)
    sym8 = characters.sym_power(8, s3)
    m54 = characters.multiplicity(sym8, (5, 4))
    m51 = characters.multiplicity(sym8, (5, 1))
    prod = (brackets.catalog_concomitant("Phi400").poly
            * brackets.catalog_concomitant("Phi441").poly)
    deg = prod.degree({"a"})
    dx = prod.degree({"x"})
    du = prod.degree({"u"})
    ok = m54 == 1 and m51 == 1 and bool(prod) and (deg, dx, du) == (8, 4, 1)
    return (ok, "mult(5,4)=mult(5,1)=1 in sym8; product of type (8,4,1)",
            f"mults=({m54},{m51}) product type ({deg},{dx},{du})")


def _check_syzygy_relations(config):
    counts = ideals.syzygy_relation_check()
    expected = {"Psi54": 35, "Psi51": 35, "Psi42": 27, "Psi21": 8}
    ok = counts == expected and sum(counts.values()) == 105
    return ok, "35/35/27/8 relations totaling 105", str(counts)


def build_checks():
    checks = [("dimension-formula", _check_dimension_formula)]
    for lid, deg, dim, dec in KERNEL_ANCHORS:
        checks.append((f"kernel-{lid}-{deg}",
                       partial(_check_piece, ideals.graded_kernel, lid, deg, dim, dec)))
    checks.append(("weyl-orbits-delta-5", partial(_check_weyl_orbits, "delta", 5)))
    for lid, deg, dim, dec in SYZYGY_ANCHORS:
        checks.append((f"syzygy-{lid}-{deg}",
                       partial(_check_piece, ideals.syzygy_kernel, lid, deg, dim, dec)))
    checks.append(("ledger-dimensions", partial(_check_rows, resolution.ledger_dim_check,
                                                "all cells match", "all cells match")))
    for lid in loci.LOCI:
        checks.append((f"hilbert-{lid}", partial(_check_hilbert, lid)))
    for name in resolution.IDENTITY_NAMES:
        checks.append((f"identity-{name}", partial(_check_identity, name)))
    checks.append(("eagon-northcott", partial(_check_rows, resolution.eagon_northcott_check,
                                              "four terms match the ledger", "all match")))
    checks.append(("duality", partial(_check_rows, resolution.duality_check,
                                      "published dual symmetries", "all match")))
    checks.append(("numerator-codimension", _check_codim))
    checks.append(("concomitant-types", _check_concomitant_types))
    for name, lid, _deg in CONCOMITANT_LOCI:
        checks.append((f"isotypic-{name}-{lid}", partial(_check_isotypic, name, lid)))
    for name, lid, _deg in CONCOMITANT_LOCI:
        checks.append((f"vanishing-{name}-{lid}", partial(_check_vanishing, name, lid)))
    checks.append(("hessian-oracle", _check_hessian))
    checks.append(("tact-formula", _check_tact_formula))
    checks.append(("aronhold-vanishing", _check_aronhold))
    checks.append(("sym8-product", _check_sym8_product))
    checks.append(("syzygy-relations", _check_syzygy_relations))
    return checks


def run_verify_all(config):
    """Run every check serially; config holds primes, seed, lmax and timings.

    The report's config carries a fixed "threads": 1, so reports keep the
    format they had when verify-all took --threads.
    """
    # lmax < 1 would run no Hilbert value and still report "pass", and no
    # prime or a bad one would fail every modular check
    if config["lmax"] < 1:
        raise ValueError(f"--lmax must be at least 1, got {config['lmax']}")
    linalg.check_primes(config["primes"])
    results = []
    for cid, fn in build_checks():
        t0 = time.monotonic()
        try:
            ok, expected, actual = fn(config)
        except linalg.UnluckyPrimeError as exc:
            ok, expected, actual = False, "consistent primes", f"unlucky prime: {exc}"
        except Exception as exc:  # computational failure: report, don't crash
            ok, expected, actual = False, "no exception", f"{type(exc).__name__}: {exc}"
        ms = int((time.monotonic() - t0) * 1000)
        results.append({"id": cid, "status": "pass" if ok else "fail", "expected": expected,
                        "actual": actual, "ms": ms if config["timings"] else 0})
    return {
        "version": __version__,
        "config": {"primes": list(config["primes"]), "seed": config["seed"],
                   "threads": 1, "lmax": config["lmax"]},
        "checks": results,
    }


def format_report(report, fmt):
    if fmt == "json":
        return json.dumps(report, indent=2) + "\n"
    if fmt == "csv":
        buf = io.StringIO()
        w = csv.writer(buf)
        w.writerow(["id", "status", "expected", "actual", "ms"])
        for c in report["checks"]:
            w.writerow([c["id"], c["status"], c["expected"], c["actual"], c["ms"]])
        return buf.getvalue()
    if fmt == "md":
        lines = [f"# verification report (v{report['version']})", "",
                 "| check | status | expected | actual | ms |",
                 "|---|---|---|---|---|"]
        for c in report["checks"]:
            lines.append(f"| {c['id']} | {c['status']} | {c['expected']} "
                         f"| {c['actual']} | {c['ms']} |")
        return "\n".join(lines) + "\n"
    raise ValueError(f"unknown format {fmt}")


def cmd_verify_all(args):
    primes = _primes(args)
    config = {"primes": primes, "seed": args.seed, "lmax": args.lmax,
              "timings": args.timings}
    # open --out first, so a path that cannot be written fails before any check runs
    with open(args.out, "w") if args.out else contextlib.nullcontext(sys.stdout) as fh:
        report = run_verify_all(config)
        fh.write(format_report(report, args.format))
    failed = [c for c in report["checks"] if c["status"] == "fail"]
    for c in failed:
        print(f"FAIL {c['id']}: expected {c['expected']}, got {c['actual']}",
              file=sys.stderr)
    return 1 if failed else 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser():
    p = argparse.ArgumentParser(prog="ternary-cubics",
                                description=__doc__.splitlines()[0])
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--prime", type=int, action="append",
                        help="modular prime (repeatable); default 1000003, 65537")
        sp.add_argument("--seed", type=int, default=0)

    sp = sub.add_parser("char", help="character calculus")
    sp.add_argument("action", choices=["dim", "decompose-sym", "decompose-ext", "tensor"])
    sp.add_argument("a", type=int)
    sp.add_argument("b", type=int)
    sp.add_argument("a2", type=int, nargs="?", default=0)
    sp.add_argument("b2", type=int, nargs="?", default=0)
    sp.add_argument("--power", type=int, default=1)
    sp.set_defaults(fn=cmd_char)

    sp = sub.add_parser("tableau", help="semistandard tableaux on (m+n, n)")
    sp.add_argument("action", choices=["count", "list"])
    sp.add_argument("m", type=int)
    sp.add_argument("n", type=int)
    sp.set_defaults(fn=cmd_tableau)

    sp = sub.add_parser("concomitant", help="the symbolic catalog")
    sp.add_argument("action", choices=["list", "type", "terms", "eval"])
    sp.add_argument("name", nargs="?")
    sp.add_argument("--cubic", default="fermat",
                    help="named cubic or 10 comma-separated coefficients")
    sp.set_defaults(fn=cmd_concomitant)

    sp = sub.add_parser("locus", help="loci and their parameterizations")
    sp.add_argument("action", choices=["dims", "sample", "tact-invariant"])
    sp.add_argument("--locus", choices=loci.LOCI)
    sp.add_argument("--seed", type=int, default=0)
    sp.set_defaults(fn=cmd_locus)

    sp = sub.add_parser("ideal", help="graded pieces of the defining ideals")
    sp.add_argument("action", choices=["dim", "character", "syzygy", "hilbert", "export"])
    sp.add_argument("--locus", required=True, choices=loci.LOCI)
    sp.add_argument("--degree", type=int, required=True)
    common(sp)
    sp.set_defaults(fn=cmd_ideal)

    sp = sub.add_parser("betti", help="published Betti tables")
    sp.add_argument("action", choices=["table", "modules", "check", "numerator"])
    sp.add_argument("--locus", choices=loci.LOCI, default="equiv")
    sp.set_defaults(fn=cmd_betti)

    sp = sub.add_parser("specseq", help="character identities")
    sp.add_argument("verb", choices=["verify"])
    sp.add_argument("name", choices=list(resolution.IDENTITY_NAMES) + ["all"])
    sp.set_defaults(fn=cmd_specseq)

    sp = sub.add_parser("verify-all", help="run the whole verification suite")
    common(sp)
    sp.add_argument("--lmax", type=int, default=8)
    sp.add_argument("--format", choices=["json", "csv", "md"], default="json")
    sp.add_argument("--out")
    sp.add_argument("--timings", action="store_true",
                    help="include real elapsed ms (reports are then not byte-stable)")
    sp.set_defaults(fn=cmd_verify_all)
    return p


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (KeyError, ValueError, OSError) as exc:
        # str() of a KeyError is the repr of its message, quotes and all
        msg = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
        print(f"error: {msg}", file=sys.stderr)
        return 2
    except linalg.UnluckyPrimeError as exc:
        print(f"computational failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
