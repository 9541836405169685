"""Acceptance suite: one pass/fail line per top-level criterion.

Run with `pytest -s tests/test_acceptance.py` to see the lines as they
complete.  Every criterion reuses the library entry points that back the
`verify-all` subcommand, with the default configuration.
"""

import time

import pytest

from ternary_cubics import cli, linalg, loci, resolution

CONFIG = {"primes": linalg.DEFAULT_PRIMES, "seed": 0, "threads": 1,
          "lmax": 8, "timings": False}
# the checks exactly as verify-all runs them, by id
CHECKS = dict(cli.build_checks())


def report(cid, ok, detail=""):
    line = f"{'PASS' if ok else 'FAIL'} {cid}" + (f": {detail}" if detail else "")
    print(line)
    assert ok, line


def test_criterion_01_dimension_formula():
    t0 = time.monotonic()
    ok, _, detail = CHECKS["dimension-formula"](CONFIG)
    elapsed = time.monotonic() - t0
    report("criterion-01 dimension formula vs tableau count",
           ok and elapsed < 1.0, f"{detail}, {elapsed:.2f}s")


@pytest.mark.parametrize("lid,deg", [a[:2] for a in cli.KERNEL_ANCHORS],
                         ids=[f"{l}-{d}" for l, d, _, _ in cli.KERNEL_ANCHORS])
def test_criterion_02_kernels(lid, deg):
    budget = 600.0 if (lid, deg) == ("empty", 8) else 30.0
    t0 = time.monotonic()
    ok, expected, actual = CHECKS[f"kernel-{lid}-{deg}"](CONFIG)
    elapsed = time.monotonic() - t0
    report(f"criterion-02 kernel {lid} degree {deg}",
           ok and elapsed < budget,
           f"{actual} (expected {expected}), {elapsed:.1f}s")


@pytest.mark.parametrize("lid,deg", [a[:2] for a in cli.SYZYGY_ANCHORS],
                         ids=[f"{l}-{d}" for l, d, _, _ in cli.SYZYGY_ANCHORS])
def test_criterion_03_syzygies(lid, deg):
    ok, expected, actual = CHECKS[f"syzygy-{lid}-{deg}"](CONFIG)
    report(f"criterion-03 first syzygies {lid}", ok,
           f"{actual} (expected {expected})")


def test_criterion_04_ledger_dimensions():
    t0 = time.monotonic()
    ok, _, detail = CHECKS["ledger-dimensions"](CONFIG)
    elapsed = time.monotonic() - t0
    report("criterion-04 ledger dimensions",
           ok and elapsed < 1.0, f"{detail}, {elapsed:.2f}s")


@pytest.mark.parametrize("lid", loci.LOCI)
def test_criterion_05_hilbert_consistency(lid):
    assert CONFIG["primes"][0] > 2 ** 16
    ok, expected, actual = CHECKS[f"hilbert-{lid}"](CONFIG)
    report(f"criterion-05 Hilbert consistency {lid}", ok,
           f"{actual}")
    if lid == "equiv":
        assert resolution.hilbert_from_numerator("equiv", 2) == 28
        assert resolution.hilbert_from_numerator("equiv", 3) == 55
    if lid == "delta":
        assert resolution.hilbert_from_numerator("delta", 4) == 680
    if lid == "neq":
        assert resolution.hilbert_from_numerator("neq", 4) == 532


def test_criterion_06_identities():
    t0 = time.monotonic()
    results = resolution.all_identities()
    elapsed = time.monotonic() - t0
    bad = [r["name"] for r in results if not r["ok"]]
    report("criterion-06 character identities",
           len(results) == 11 and not bad and elapsed < 60.0,
           f"{len(results)} identities, failures {bad or 'none'}, {elapsed:.1f}s")


def test_criterion_07_eagon_northcott():
    ok, _, detail = CHECKS["eagon-northcott"](CONFIG)
    report("criterion-07 Eagon-Northcott terms", ok, detail)


def test_criterion_08_dualities():
    ok, _, detail = CHECKS["duality"](CONFIG)
    report("criterion-08 dual symmetries", ok, detail)


def test_criterion_09_catalog():
    ok, _, detail = CHECKS["concomitant-types"](CONFIG)
    report("criterion-09a catalog types", ok, detail)
    t0 = time.monotonic()
    for name, lid, deg in cli.CONCOMITANT_LOCI:
        ok, expected, actual = CHECKS[f"isotypic-{name}-{lid}"](CONFIG)
        report(f"criterion-09b isotypic {name} in ({lid},{deg})", ok, actual)
    for name, lid, _deg in cli.CONCOMITANT_LOCI:
        ok, expected, actual = CHECKS[f"vanishing-{name}-{lid}"](CONFIG)
        report(f"criterion-09c vanishing {name} on {lid}", ok, actual)
    elapsed = time.monotonic() - t0
    report("criterion-09d Phi814 within budget", elapsed < 300.0, f"{elapsed:.1f}s")


def test_criterion_10_oracles():
    ok, _, detail = CHECKS["hessian-oracle"](CONFIG)
    report("criterion-10a Hessian oracle", ok, detail)
    ok, _, detail = CHECKS["tact-formula"](CONFIG)
    report("criterion-10b tact invariant formula", ok, detail)
    ok, _, detail = CHECKS["aronhold-vanishing"](CONFIG)
    report("criterion-10c degree-4 invariant vanishing pattern", ok, detail)
    ok, _, detail = CHECKS["sym8-product"](CONFIG)
    report("criterion-10d sym8 multiplicities and product type", ok, detail)


def test_criterion_11_syzygy_relations():
    ok, _, detail = CHECKS["syzygy-relations"](CONFIG)
    report("criterion-11 explicit syzygy relations", ok, detail)


def test_criterion_12_verify_all_deterministic():
    t0 = time.monotonic()
    r1 = cli.run_verify_all(CONFIG)
    elapsed = time.monotonic() - t0
    r2 = cli.run_verify_all(CONFIG)
    text1 = cli.format_report(r1, "json")
    text2 = cli.format_report(r2, "json")
    bad = [c["id"] for c in r1["checks"] if c["status"] != "pass"]
    report("criterion-12 verify-all",
           not bad and text1 == text2 and elapsed < 900.0,
           f"{len(r1['checks'])} checks, failures {bad or 'none'}, "
           f"deterministic={text1 == text2}, {elapsed:.0f}s")
