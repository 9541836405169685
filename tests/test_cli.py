"""CLI subcommands: outputs, exit codes, and report formats."""

import json

import pytest

from ternary_cubics import cli


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
    assert all(r[0] == "pass" for _, r in results[0])


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


def test_weyl_orbit_check():
    config = {"primes": (1000003, 65537), "seed": 0, "threads": 1, "lmax": 2,
              "timings": False}
    assert cli._check_weyl_orbits("delta", 4)(config) == (
        "pass", "nullity constant on each S3 orbit", "91 blocks in 19 orbits agree")
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
