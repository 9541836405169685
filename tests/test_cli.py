"""CLI subcommands: outputs, exit codes, and report formats."""

import ast
import contextlib
import io
import json
import os
import resource
import subprocess
import sys
import tempfile
from collections import Counter
from math import comb
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from ternary_cubics import brackets, cli, linalg, loci, resolution, tableaux

SRC = Path(__file__).resolve().parents[1] / "src"
CHILD_MEMORY = 2 ** 30


def run(capsys, *argv):
    rc = cli.main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


def test_char_dim(capsys):
    rc, out, _ = run(capsys, "char", "dim", "4", "2")
    assert rc == 0 and out.strip() == "27"


def test_char_decompose_sym(capsys):
    rc, out, _ = run(capsys, "char", "decompose-sym", "3", "0", "--power", "2")
    assert rc == 0
    assert set(out.strip().split(" + ")) == {"(6,0)", "(4,2)"}


def test_char_tensor(capsys):
    rc, out, _ = run(capsys, "char", "tensor", "1", "0", "1", "1")
    assert rc == 0
    assert set(out.strip().split(" + ")) == {"(2,1)", "(0,0)"}


def test_tableau_count_and_list(capsys):
    rc, out, _ = run(capsys, "tableau", "count", "2", "2")
    assert rc == 0 and out.strip() == "27"
    rc, out, _ = run(capsys, "tableau", "list", "0", "1")
    assert rc == 0
    assert out.splitlines() == ["[1 | 2]", "[1 | 3]", "[2 | 3]"]


def test_tableau_count_is_the_number_listed(capsys):
    for m in range(9):
        for n in range(9):
            rc, out, _ = run(capsys, "tableau", "count", str(m), str(n))
            assert rc == 0 and int(out) == len(tableaux.enumerate_tableaux(m, n)), (m, n)


def test_tableau_count_and_list_past_the_bound(capsys):
    # count once listed every tableau: 3000 3000 died of a MemoryError under a memory cap
    rc, out, _ = run(capsys, "tableau", "count", "3000", "3000")
    assert (rc, out) == (0, "27027009001\n")
    rc, out, err = run(capsys, "tableau", "list", "3000", "3000")
    assert (rc, out) == (2, "")
    assert err == ("error: shape (6000, 3000) has 27,027,009,001 tableaux, "
                   "more than the bound of 10,000 for a listing\n")
    rc, out, err = run(capsys, "tableau", "count", "-1", "2")
    assert (rc, out, err) == (2, "", "error: tableau needs m, n >= 0, got -1, 2\n")


@pytest.mark.parametrize("argv,top", [
    # the first three once ran out of time or memory before answering
    (("tensor", "60", "30", "60", "30"), 120),
    (("decompose-sym", "3", "0", "--power", "200"), 600),
    (("tensor", "120", "60", "120", "60"), 240),
    # A = 62 is the first past the bound, also for the trivial module
    (("decompose-sym", "1", "0", "--power", "62"), 62),
    (("decompose-sym", "0", "0", "--power", "62"), 62),
    (("decompose-ext", "20", "10", "--power", "4"), 80),
])
def test_char_refuses_past_the_work_bound(capsys, argv, top):
    rc, out, err = run(capsys, "char", *argv)
    assert (rc, out) == (2, "")
    assert err == (f"error: char {argv[0]}: a highest weight (A, B) with A up to {top} gives "
                   f"{(top + 1) * (top + 2) // 2:,} candidate weights, more than the bound "
                   f"of 2,000\n")


def test_char_work_bound_admits_highest_weight_60(capsys):
    # A = 60, 1,891 candidate weights; 20 0 --power 3 has its own golden test
    rc, out, _ = run(capsys, "char", "decompose-sym", "3", "0", "--power", "20")
    assert rc == 0 and out.startswith("(60,0) + (58,2) + (57,3) + ")
    # an exterior power past the dimension is zero, whatever the power
    rc, out, _ = run(capsys, "char", "decompose-ext", "3", "0", "--power", "1000")
    assert (rc, out) == (0, "0\n")
    # also where the layers up to the power would pass the box floor
    for a, b, power in (("7", "0", "40"), ("6", "3", "100"), ("20", "10", "5000")):
        rc, out, _ = run(capsys, "char", "decompose-ext", a, b, "--power", power)
        assert (rc, out) == (0, "0\n"), (a, b, power)


def test_concomitant_list_and_type(capsys):
    rc, out, _ = run(capsys, "concomitant", "list")
    assert rc == 0 and "Phi222" in out and "Psi21" in out
    rc, out, _ = run(capsys, "concomitant", "type", "Phi222")
    assert rc == 0 and out.strip() == "(2, 2, 2)"


def test_concomitant_eval_fermat(capsys):
    rc, out, _ = run(capsys, "concomitant", "eval", "Phi400", "--cubic", "fermat")
    assert rc == 0 and out.strip() == "0"
    rc, out, _ = run(capsys, "concomitant", "eval", "Phi400",
                     "--cubic", "1,2,3,4,5,6,7,8,9,10")
    assert rc == 0 and out.strip() != "0"


@pytest.mark.parametrize("cubic", ["bogus", "1,2,x", "1.5"])
def test_concomitant_eval_names_the_cubics_it_takes(capsys, cubic):
    rc, out, err = run(capsys, "concomitant", "eval", "Phi400", "--cubic", cubic)
    assert rc == 2 and out == ""
    assert err == (f"error: cubic {cubic!r} is neither a named cubic "
                   f"{sorted(loci.NAMED_CUBICS)} nor 10 comma-separated integers\n")


def test_locus_dims_and_sample(capsys):
    rc, out, _ = run(capsys, "locus", "dims")
    assert rc == 0 and "equiv" in out and "dim 2" in out
    rc, out1, _ = run(capsys, "locus", "sample", "--locus", "equiv", "--seed", "3")
    rc2, out2, _ = run(capsys, "locus", "sample", "--locus", "equiv", "--seed", "3")
    assert rc == rc2 == 0 and out1 == out2
    assert len(out1.strip().split(",")) == 10


def test_ideal_dim_and_character(capsys):
    rc, out, _ = run(capsys, "ideal", "dim", "--locus", "neq", "--degree", "3")
    assert rc == 0 and out.strip() == "20"
    rc, out, _ = run(capsys, "ideal", "character", "--locus", "equiv", "--degree", "2")
    assert rc == 0 and out.strip() == "(4,2)"


def test_ideal_syzygy(capsys):
    rc, out, _ = run(capsys, "ideal", "syzygy", "--locus", "equiv", "--degree", "2")
    assert rc == 0 and out.startswith("105 = ")


def test_ideal_hilbert(capsys):
    rc, out, _ = run(capsys, "ideal", "hilbert", "--locus", "equiv", "--degree", "2")
    assert rc == 0 and out.strip() == "28"


def test_ideal_export_json(capsys):
    rc, out, _ = run(capsys, "ideal", "export", "--locus", "equiv", "--degree", "2")
    assert rc == 0
    d = json.loads(out)
    assert d["dimension"] == 27


def test_betti_table_and_check(capsys):
    rc, out, _ = run(capsys, "betti", "table", "--locus", "equiv")
    assert rc == 0 and "105" in out
    rc, out, _ = run(capsys, "betti", "check")
    assert rc == 0 and out.strip() == "PASS"
    rc, out, _ = run(capsys, "betti", "numerator", "--locus", "equiv")
    assert rc == 0 and out.strip() == "[1, 0, -27, 105, -189, 189, -105, 27, 0, -1]"


def test_specseq_verify(capsys):
    rc, out, _ = run(capsys, "specseq", "verify", "Z1")
    assert rc == 0 and out.strip() == "Z1: PASS"
    rc, out, _ = run(capsys, "specseq", "verify", "all")
    assert rc == 0
    assert len(out.strip().splitlines()) == len(cli.resolution.IDENTITY_NAMES)
    assert all(line.endswith("PASS") for line in out.strip().splitlines())


def test_usage_errors(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["ideal", "dim", "--locus", "bogus", "--degree", "3"])
    assert exc.value.code == 2
    rc, _, err = run(capsys, "concomitant", "type", "Phi999")
    assert rc == 2 and "error" in err


@pytest.mark.parametrize("action", ["type", "terms", "eval"])
@pytest.mark.parametrize("name", [None, "Phi999"])
def test_concomitant_unknown_name(capsys, action, name):
    # the message once carried the quotes that str(KeyError) adds, and a
    # missing name was reported as the unknown concomitant None
    rc, out, err = run(capsys, "concomitant", action, *([name] if name else []))
    assert rc == 2 and out == ""
    if name is None:
        assert err.startswith(f"error: concomitant {action} requires a NAME; have [")
    else:
        assert err.startswith(f"error: unknown concomitant {name!r}; have [")
    assert err.endswith("]\n") and "Traceback" not in err


def test_locus_sample_without_locus(capsys):
    # once "error: unknown locus None"
    rc, out, err = run(capsys, "locus", "sample")
    assert (rc, out, err) == (2, "", "error: locus sample requires --locus\n")


def test_verify_all_bad_primes(capsys):
    rc, _, err = run(capsys, "verify-all", "--prime", "101")
    assert rc == 2 and "2^16" in err


def test_report_formats():
    report = {"version": "0", "config": {}, "checks": [
        {"id": "x", "status": "pass", "expected": "e", "actual": "a", "ms": 0}]}
    assert json.loads(cli.format_report(report, "json"))["checks"][0]["id"] == "x"
    csv_text = cli.format_report(report, "csv")
    assert csv_text.splitlines()[0] == "id,status,expected,actual,ms"
    md = cli.format_report(report, "md")
    assert "| x | pass |" in md
    with pytest.raises(ValueError):
        cli.format_report(report, "xml")


def test_run_verify_subset_deterministic():
    # a fast structural check: two runs of the pure-character checks agree
    config = {"primes": (1000003, 65537), "seed": 0, "threads": 1,
              "lmax": 2, "timings": False}
    fast = {"dimension-formula", "identity-Z1", "tact-formula"}
    results = {}
    for trial in range(2):
        out = []
        for cid, fn in cli.build_checks():
            if cid in fast:
                out.append((cid, fn(config)))
        results[trial] = out
    assert results[0] == results[1]
    assert {cid for cid, _ in results[0]} == fast
    for _, r in results[0]:
        assert tuple(map(type, r)) == (bool, str, str) and r[0] is True


@pytest.mark.parametrize("action,prime,message", [
    ("dim", "1000000", "not prime"),
    ("hilbert", "1000000", "not prime"),
    ("dim", "4294967311", "outside"),
    ("hilbert", "4294967311", "outside"),
    ("dim", str(2 ** 64 - 59), "outside"),
])
def test_ideal_bad_primes(capsys, action, prime, message):
    # each once printed a wrong number with exit code 0, or a traceback
    rc, out, err = run(capsys, "ideal", action, "--locus", "delta", "--degree", "4",
                       "--prime", prime)
    assert rc == 2 and out == ""
    assert err.startswith("error: ") and message in err and "Traceback" not in err


def run_capped(*argv):
    """The CLI in a child process capped at CHILD_MEMORY of address space and
    120 s, so that a computation that never ends fails fast instead of
    filling the machine's memory."""
    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (CHILD_MEMORY, CHILD_MEMORY))

    return subprocess.run([sys.executable, "-m", "ternary_cubics.cli", *argv],
                          env={**os.environ, "PYTHONPATH": str(SRC)}, preexec_fn=cap,
                          capture_output=True, text=True, timeout=120)


BOUND = "more than the bound of 1,000,000"


@pytest.mark.parametrize("argv,message", [
    # the monomial walk once never reached degree -1 and ran out of memory
    *[pytest.param((action, "--locus", "equiv", "--degree", "-1"),
                   "degree must be at least 0, got -1", id=action)
      for action in ("dim", "syzygy", "hilbert")],
    # and a large degree listed its monomials until memory ran out
    pytest.param(("dim", "--locus", "delta", "--degree", "30"),
                 f"degree 30 has C(39, 9) = 211,915,132 monomials, {BOUND}", id="dim-30"),
    pytest.param(("hilbert", "--locus", "delta", "--degree", "20"),
                 f"degree 20 has C(29, 9) = 10,015,005 monomials, {BOUND}", id="hilbert-20"),
    # the syzygies of degree 14 need the monomials of degree 15
    pytest.param(("syzygy", "--locus", "delta", "--degree", "14"),
                 f"degree 15 has C(24, 9) = 1,307,504 monomials, {BOUND}", id="syzygy-14"),
])
def test_ideal_negative_degree(argv, message):
    proc = run_capped("ideal", *argv)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr == f"error: {message}\n"


def fuzz_main(argv):
    """(exit code, stderr) of cli.main(argv), stdout discarded; argparse's
    usage errors count by their SystemExit code."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code
    return rc, err.getvalue()


IDEAL_DEGREES = st.one_of(st.integers(-5, -1), st.integers(0, 3), st.integers(20, 10 ** 9),
                          st.sampled_from(["x", "", "2.5", "1e3"])).map(str)
# valid, composite, below 2^16, at least 2^27; lists of them repeat primes too
IDEAL_PRIMES = st.sampled_from(["1000003", "65537", "134217689", "1000001", "65535",
                                "65521", "2", "134217728", "4294967311"])


@settings(max_examples=100, deadline=2000)
@given(action=st.sampled_from(["dim", "character", "syzygy", "hilbert", "export"]),
       locus=st.sampled_from([*loci.LOCI, "bogus", ""]), degree=IDEAL_DEGREES,
       primes=st.lists(IDEAL_PRIMES, max_size=3))
def test_ideal_fuzz(action, locus, degree, primes):
    # every input either answers or exits 2 with a message, never a traceback
    argv = ["ideal", action, "--locus", locus, "--degree", degree]
    for p in primes:
        argv += ["--prime", p]
    rc, err = fuzz_main(argv)
    assert rc in (0, 2), (argv, err)
    assert "Traceback" not in err


# negative, small, huge and non-numeric; the small ones answer well inside the
# deadline, the huge ones are refused by a work bound or answered in closed form
SMALL_INTS = st.one_of(st.integers(-3, -1), st.integers(0, 6), st.integers(10 ** 3, 10 ** 12),
                       st.sampled_from(["x", "", "2.5", "1e3"])).map(str)


@settings(max_examples=100, deadline=2000)
@given(action=st.sampled_from(["dim", "decompose-sym", "decompose-ext", "tensor"]),
       weights=st.lists(SMALL_INTS, min_size=2, max_size=4),
       power=st.one_of(st.none(), st.integers(-2, 4).map(str), SMALL_INTS))
def test_char_fuzz(action, weights, power):
    # every input either answers or exits 2 with a message, never a traceback
    argv = ["char", action, *weights, *([] if power is None else ["--power", power])]
    rc, err = fuzz_main(argv)
    assert rc in (0, 2), (argv, err)
    assert "Traceback" not in err


@settings(max_examples=100, deadline=2000)
@given(action=st.sampled_from(["count", "list"]),
       shape=st.lists(st.one_of(st.integers(-3, -1), st.integers(0, 20),
                                st.integers(10 ** 3, 10 ** 12),
                                st.sampled_from(["x", "", "2.5"])).map(str),
                      min_size=1, max_size=3))
def test_tableau_fuzz(action, shape):
    # every input either answers or exits 2 with a message, never a traceback
    argv = ["tableau", action, *shape]
    rc, err = fuzz_main(argv)
    assert rc in (0, 2), (argv, err)
    assert "Traceback" not in err


@pytest.fixture(scope="module")
def expanded_catalog():
    # the first expansion of Phi814 is not what the deadline should time
    for name in brackets.CATALOG:
        brackets.catalog_concomitant(name)


# named, valid, empty, short, long, non-numeric, fractional, unknown named
CUBICS = st.sampled_from(["fermat", ",".join(map(str, range(1, 11))),
                          "-3,0,1,0,0,2,0,0,0,7", "", "1,2,3", ",".join(["1"] * 11),
                          "a,b,c,d,e,f,g,h,i,j", "1.5", "bogus"])


@settings(max_examples=100, deadline=2000)
@given(action=st.sampled_from(["list", "type", "terms", "eval"]),
       name=st.one_of(st.none(), st.sampled_from([*brackets.CATALOG, "Phi999", ""])),
       cubic=st.one_of(st.none(), CUBICS))
def test_concomitant_fuzz(expanded_catalog, action, name, cubic):
    # every input either answers or exits 2 with a message, never a traceback
    argv = ["concomitant", action, *([] if name is None else [name])]
    if cubic is not None:
        argv.append(f"--cubic={cubic}")
    rc, err = fuzz_main(argv)
    assert rc in (0, 2), (argv, err)
    assert "Traceback" not in err and "None" not in err


# valid, negative, huge, and ones that argparse refuses
SEEDS = st.one_of(st.integers(-10 ** 6, 10 ** 6), st.integers(10 ** 18, 10 ** 40),
                  st.integers(-10 ** 40, -10 ** 18), st.sampled_from(["x", "", "2.5"])).map(str)
# valid, unknown and empty; None leaves the option out
LOCI_OPTION = st.one_of(st.none(), st.sampled_from([*loci.LOCI, "bogus", ""]))


@settings(max_examples=100, deadline=2000)
@given(action=st.sampled_from(["dims", "sample", "tact-invariant"]),
       locus=LOCI_OPTION, seed=st.one_of(st.none(), SEEDS))
def test_locus_fuzz(action, locus, seed):
    # every input either answers or exits 2 with a message, never a traceback
    argv = ["locus", action, *([] if locus is None else [f"--locus={locus}"]),
            *([] if seed is None else [f"--seed={seed}"])]
    rc, err = fuzz_main(argv)
    assert rc in (0, 2), (argv, err)
    assert "Traceback" not in err


@settings(max_examples=50, deadline=2000)
@given(action=st.sampled_from(["table", "modules", "check", "numerator", "bogus"]),
       locus=LOCI_OPTION)
def test_betti_fuzz(action, locus):
    # every input either answers or exits 2 with a message, never a traceback
    argv = ["betti", action, *([] if locus is None else [f"--locus={locus}"])]
    rc, err = fuzz_main(argv)
    assert rc in (0, 2), (argv, err)
    assert "Traceback" not in err


# "all" checks every identity at about 0.2 s a call: few examples suffice for
# an input space this small
@settings(max_examples=30, deadline=2000)
@given(verb=st.sampled_from(["verify", "check", ""]),
       name=st.one_of(st.none(), st.sampled_from([*resolution.IDENTITY_NAMES, "all",
                                                  "Z9", ""])))
def test_specseq_fuzz(verb, name):
    # every input either answers or exits 2 with a message, never a traceback
    argv = ["specseq", verb, *([] if name is None else [name])]
    rc, err = fuzz_main(argv)
    assert rc in (0, 2), (argv, err)
    assert "Traceback" not in err


VANISHING_CONFIG = {"primes": (1000003, 65537), "seed": 0, "threads": 1, "lmax": 2,
                    "timings": False}


def first_nonzero_sample(name, lid, config):
    """The sample the point-by-point loop stopped at: the first of the 50 at
    which the exact value is nonzero mod p, or None."""
    p = config["primes"][0]
    conc = brackets.catalog_concomitant(name)
    for k in range(50):
        pt = loci.sample(lid, seed=(config["seed"], name, k), p=p)
        if any(c % p for c in brackets.evaluate_at_cubic(conc, pt).terms.values()):
            return k
    return None


@pytest.mark.parametrize("name, lid", [("Phi222", "neq"), ("Phi406", "delta"),
                                       ("Phi330", "delta")])
def test_vanishing_check_fails_off_its_locus(name, lid):
    # Phi222 dies on cubes only, Phi406 on L1^2 L2, and the Hessian of a
    # triangle xyz is 2xyz: each is nonzero on the locus given
    assert first_nonzero_sample(name, lid, VANISHING_CONFIG) == 0
    assert cli._check_vanishing(name, lid, VANISHING_CONFIG) == (
        False, f"{name} = 0 on {lid}", "nonzero at sample 0")


def test_vanishing_check_reports_the_first_nonzero_sample(monkeypatch):
    # the first three samples are cubes, on which Phi222 vanishes; the fourth
    # is the first point off the cube locus
    sample = loci.sample

    def some_cubes(lid, seed, p=None):
        return sample("equiv" if seed[2] < 3 else lid, seed, p)

    monkeypatch.setattr(loci, "sample", some_cubes)
    assert cli._check_vanishing("Phi222", "neq", VANISHING_CONFIG) == (
        False, "Phi222 = 0 on neq", "nonzero at sample 3")
    assert cli._check_vanishing("Phi222", "equiv", VANISHING_CONFIG)[0]


def test_weyl_orbit_check():
    config = {"primes": (1000003, 65537), "seed": 0, "threads": 1, "lmax": 2,
              "timings": False}
    # ("delta", 4) is not in the table: call the plain function
    assert cli._check_weyl_orbits("delta", 4, config) == (
        True, "nullity constant on each S3 orbit", "91 blocks in 19 orbits agree")
    assert "weyl-orbits-delta-5" in dict(cli.build_checks())


def test_ideal_single_prime_notice(capsys):
    # one prime leaves the kernel unchecked against a second one: say so
    rc, out, err = run(capsys, "ideal", "dim", "--locus", "delta", "--degree", "4",
                       "--prime", "1000003")
    assert rc == 0 and out.strip() == "35"
    assert len(err.splitlines()) == 1 and "agreement was not checked" in err
    rc, out, err = run(capsys, "ideal", "dim", "--locus", "delta", "--degree", "4")
    assert rc == 0 and out.strip() == "35" and err == ""


def test_ideal_hilbert_uses_every_prime(capsys, monkeypatch):
    rc, out, err = run(capsys, "ideal", "hilbert", "--locus", "equiv", "--degree", "2",
                       "--prime", "1000003", "--prime", "65537")
    assert rc == 0 and out.strip() == "28" and err == ""
    seen = []

    def fake_hilbert(locus, degree, prime, seed):
        seen.append(prime)
        return 28 if prime == 1000003 else 27

    monkeypatch.setattr(cli.ideals, "hilbert_value", fake_hilbert)
    rc, out, err = run(capsys, "ideal", "hilbert", "--locus", "equiv", "--degree", "2",
                       "--prime", "1000003", "--prime", "65537")
    assert seen == [1000003, 65537]
    assert rc == 1 and out == ""
    assert "computational failure" in err and "65537" in err


def test_ideal_hilbert_evaluates_each_prime_once(capsys, monkeypatch):
    seen = []

    def fake_hilbert(locus, degree, prime, seed):
        seen.append(prime)
        return 28

    monkeypatch.setattr(cli.ideals, "hilbert_value", fake_hilbert)
    rc, out, _ = run(capsys, "ideal", "hilbert", "--locus", "equiv", "--degree", "2",
                     "--prime", "65537", "--prime", "1000003", "--prime", "65537")
    assert rc == 0 and out.strip() == "28"
    assert seen == [65537, 1000003]


def test_verify_all_report_echoes_repeated_primes(monkeypatch):
    check = dict(cli.build_checks())["kernel-equiv-2"]
    monkeypatch.setattr(cli, "build_checks", lambda: [("kernel-equiv-2", check)])
    config = {"primes": (65537, 65537), "seed": 0, "lmax": 1, "timings": False}
    report = cli.run_verify_all(config)
    assert report["config"]["primes"] == [65537, 65537]
    assert [c["status"] for c in report["checks"]] == ["pass"]


@pytest.mark.parametrize("flag,value", [("--lmax", "0"), ("--lmax", "-2")])
def test_verify_all_rejects_empty_ranges(capsys, monkeypatch, flag, value):
    # --lmax below 1 ran no Hilbert value and still reported "pass"
    monkeypatch.setattr(cli, "build_checks", lambda: pytest.fail("ran checks"))
    rc, out, err = run(capsys, "verify-all", flag, value)
    assert rc == 2 and out == ""
    assert err.startswith(f"error: {flag} must be at least 1") and "Traceback" not in err


@pytest.mark.parametrize("key", ["lmax"])
def test_run_verify_all_rejects_empty_ranges(monkeypatch, key):
    monkeypatch.setattr(cli, "build_checks", lambda: pytest.fail("ran checks"))
    config = {"primes": (1000003, 65537), "seed": 0, "threads": 1, "lmax": 2,
              "timings": False, key: -2}
    with pytest.raises(ValueError, match=f"--{key} must be at least 1"):
        cli.run_verify_all(config)


def test_run_verify_all_rejects_no_primes(monkeypatch):
    # no prime once ran every check and failed the modular ones with IndexError
    monkeypatch.setattr(cli, "build_checks", lambda: pytest.fail("ran checks"))
    config = {"primes": (), "seed": 0, "lmax": 1, "timings": False}
    with pytest.raises(ValueError, match="at least one prime"):
        cli.run_verify_all(config)


@pytest.mark.parametrize("primes,message", [
    ((1000000,), "1000000 is not prime"),
    ((1000003, 65537, 101), "outside"),
    ((65537, 1000003.0), "must be an integer"),
])
def test_run_verify_all_rejects_bad_primes(monkeypatch, primes, message):
    # (1000000,) once ran every check and reported 35 failed rows of
    # "ValueError: 1000000 is not prime"
    monkeypatch.setattr(cli, "build_checks", lambda: pytest.fail("ran checks"))
    config = {"primes": primes, "seed": 0, "lmax": 1, "timings": False}
    with pytest.raises(ValueError, match=message):
        cli.run_verify_all(config)


def test_verify_all_runs_serially(capsys, monkeypatch):
    # verify-all takes no --threads, and its report carries a fixed "threads": 1
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify-all", "--threads", "2"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --threads 2" in capsys.readouterr().err
    monkeypatch.setattr(cli, "build_checks",
                        lambda: [("dimension-formula", cli._check_dimension_formula)])
    rc, out, err = run(capsys, "verify-all")
    assert rc == 0 and err == ""
    assert json.loads(out)["config"] == {"primes": [1000003, 65537], "seed": 0,
                                         "threads": 1, "lmax": 8}


def test_verify_all_anchors_agree_with_published_ledger():
    ledger = resolution.tables()
    for locus, dim in loci.LOCUS_DIM.items():
        assert ledger[locus]["dim"] == dim, locus
    later = []
    for locus, j, dim, dec in cli.KERNEL_ANCHORS:
        assert dim == comb(j + 9, 9) - resolution.hilbert_from_numerator(locus, j), (locus, j)
        # at the first generator degree the kernel is the generators; later
        # degrees also hold multiples of them (tact-5 contains T * R_1)
        if j == min(jj for jj, p in ledger[locus]["modules"] if p == 0):
            assert Counter(dict(dec)) == Counter(resolution.module_list(locus, j, 0)), (locus, j)
        else:
            later.append((locus, j))
    assert later == [("tact", 5)]
    for locus, j, dim, dec in cli.SYZYGY_ANCHORS:
        assert Counter(dict(dec)) == Counter(resolution.module_list(locus, j, 1)), (locus, j)


def test_verify_all_unwritable_out_fails_before_any_check(capsys, monkeypatch, tmp_path):
    monkeypatch.setattr(cli, "build_checks", lambda: pytest.fail("ran checks"))
    target = tmp_path / "missing" / "r.json"
    rc, out, err = run(capsys, "verify-all", "--out", str(target))
    assert rc == 2 and out == ""
    assert err.startswith("error: ") and str(target) in err and "Traceback" not in err
    assert not target.exists()


def test_verify_all_single_prime_notice(capsys, monkeypatch):
    monkeypatch.setattr(cli, "build_checks",
                        lambda: [("dimension-formula", cli._check_dimension_formula)])
    rc, out, err = run(capsys, "verify-all", "--prime", "1000003")
    assert rc == 0
    assert err == "note: one prime (1000003); multi-prime agreement was not checked\n"
    config = {"primes": (1000003,), "seed": 0, "threads": 1,
              "lmax": 8, "timings": False}
    assert out == cli.format_report(cli.run_verify_all(config), "json")
    rc, out, err = run(capsys, "verify-all")
    assert rc == 0 and err == ""
    assert json.loads(out)["config"]["primes"] == list(cli.linalg.DEFAULT_PRIMES)


VERIFY_INTS = st.one_of(st.integers(-3, 0), st.integers(1, 9), st.integers(10 ** 9, 10 ** 30),
                       st.sampled_from(["x", "", "2.5", "1e3"])).map(str)


@settings(max_examples=100, deadline=2000)
@given(primes=st.lists(IDEAL_PRIMES, max_size=3), seed=st.one_of(st.none(), VERIFY_INTS),
       lmax=st.one_of(st.none(), VERIFY_INTS),
       fmt=st.one_of(st.none(), st.sampled_from(["json", "csv", "md", "xml", ""])),
       out=st.one_of(st.none(), st.sampled_from(["r.out", "missing/r.out", ".", ""])))
def test_verify_all_fuzz(primes, seed, lmax, fmt, out):
    # every input either runs the checks and exits 0, or exits 2 with a
    # message before any check runs; never a traceback
    runs = []

    def stub(config):
        runs.append(config)
        return True, "e", "a"

    argv = ["verify-all"]
    for p in primes:
        argv += ["--prime", p]
    for flag, value in (("--seed", seed), ("--lmax", lmax), ("--format", fmt)):
        if value is not None:
            argv += [flag, value]
    with pytest.MonkeyPatch.context() as mp, tempfile.TemporaryDirectory() as tmp:
        mp.setattr(cli, "build_checks", lambda: [("stub", stub)])
        if out is not None:
            argv += ["--out", os.path.join(tmp, out) if out else ""]
        rc, err = fuzz_main(argv)
        assert rc in (0, 2), (argv, err)
        assert "Traceback" not in err
        assert len(runs) == (rc == 0), (argv, err)
        if rc == 0:
            assert runs[0]["lmax"] >= 1 and runs[0]["primes"]
            assert all(linalg.check_prime(p) for p in runs[0]["primes"])
            if out:
                assert os.path.isfile(argv[-1])
        else:
            assert "error: " in err.splitlines()[-1], (argv, err)


def test_verdict_is_spelled_once():
    # a check returns (ok, expected, actual); only run_verify_all writes "pass"
    # or "fail", and cmd_verify_all reads "fail" back; checks are plain functions
    tree = ast.parse((SRC / "ternary_cubics" / "cli.py").read_text())
    spelled = {"pass": set(), "fail": set()}
    for top in tree.body:
        for node in ast.walk(top):
            if isinstance(node, ast.Constant) and node.value in spelled:
                spelled[node.value].add(getattr(top, "name", "<module>"))
    assert spelled == {"pass": {"run_verify_all"},
                       "fail": {"run_verify_all", "cmd_verify_all"}}
    nested = [(top.name, node.name) for top in tree.body
              if isinstance(top, ast.FunctionDef) and top.name.startswith("_check_")
              for node in ast.walk(top)
              if node is not top and isinstance(node, ast.FunctionDef)]
    assert nested == []
