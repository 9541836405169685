"""No dead public API: every public function and method has a caller.

A caller is a reference in the package, the demos or the benchmark, not in
the tests.  Only the test oracles below may go without one.
"""

import ast
import io
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "ternary_cubics"
CALLER_DIRS = ("src", "demos", "perfbench")

TEST_ORACLES = {
    # exact rational nullspace: the oracle for the modular routines in
    # tests/test_linalg.py and for nonsingular Gram matrices
    "nullspace_frac",
    # the public form of characters._hook, which the spectral identities in
    # resolution call directly: tests/test_characters.py checks it
    "hook_schur",
    # kernels checked by evaluation at locus points, independently of the
    # substitution images; DOT_TERMS and PRIME_LIMIT are sized for it
    "vanishes_at",
    # torus weight of a Poly: the check that every substitution map
    # preserves weight, which the weight-block split rests on
    "weight",
}


def public_definitions():
    """(module, qualified name) of every public module-level function and method."""
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.ClassDef):
                out += [(path.stem, f"{node.name}.{sub.name}") for sub in node.body
                        if isinstance(sub, ast.FunctionDef) and not sub.name.startswith("_")]
            elif isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                out.append((path.stem, node.name))
    return out


def referenced_names():
    """Every NAME token outside a `def` line; docstrings and comments are not names."""
    names = set()
    for d in CALLER_DIRS:
        for path in sorted((ROOT / d).rglob("*.py")):
            tokens = tokenize.generate_tokens(io.StringIO(path.read_text()).readline)
            names.update(tok.string for tok in tokens if tok.type == tokenize.NAME
                         and not tok.line.lstrip().startswith("def "))
    return names


def test_every_public_function_has_a_caller():
    names = referenced_names()
    dead = [f"{mod}.{qual}" for mod, qual in public_definitions()
            if qual.split(".")[-1] not in names | TEST_ORACLES]
    assert dead == []


def test_test_oracles_exist_and_have_no_caller():
    # an oracle that gains a caller, or is deleted, leaves the allowlist
    defined = {qual.split(".")[-1] for _, qual in public_definitions()}
    assert TEST_ORACLES <= defined
    assert sorted(TEST_ORACLES & referenced_names()) == []
