"""No dead public API: every public function and method has a caller, every
optional parameter has a caller that sets it, and every dataclass field has a
reader.

A caller is a reference in the package, the demos or the benchmark, not in
the tests.  Only the test oracles below may go without one.
"""

import ast
import importlib
import io
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "ternary_cubics"
CALLER_DIRS = ("src", "demos", "perfbench")

TEST_ORACLES = {
    # exact rational nullspace: the oracle for the modular routines in
    # tests/test_linalg.py and for nonsingular pairing matrices
    "nullspace_frac",
    # the public form of characters._hook, which the spectral identities in
    # resolution call directly: tests/test_characters.py checks it
    "hook_schur",
    # kernels checked by evaluation at locus points, independently of the
    # substitution images, with exact integer dot products
    "vanishes_at",
    # torus weight of a Poly: the check that every substitution map
    # preserves weight, which the weight-block split rests on
    "weight",
    # the mod-p row-span test: the reference of the exact membership test
    # ideals.isotypic_match in tests/test_ideals.py, and a traced name in
    # perfbench/tracer.py, which wraps it by name
    "in_rowspan_mod",
    # a catalog concomitant's tableau coefficients: read by the modular
    # membership reference and the Gram-matrix syzygy reference in
    # tests/test_ideals.py, and a traced name in perfbench/tracer.py
    "concomitant_coefficients",
}

UNSET_OPTIONS = {
    # the tests drive the CLI in-process; the console script passes nothing
    ("main", "argv"),
}


def public_functions():
    """(module, qualified name, ast.FunctionDef, bound leading parameters) of every
    public module-level function and method."""
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.ClassDef):
                for sub in node.body:
                    if isinstance(sub, ast.FunctionDef) and not sub.name.startswith("_"):
                        static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                                     for d in sub.decorator_list)
                        out.append((path.stem, f"{node.name}.{sub.name}", sub,
                                    0 if static else 1))
            elif isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                out.append((path.stem, node.name, node, 0))
    return out


def public_definitions():
    """(module, qualified name) of every public module-level function and method."""
    return [(mod, qual) for mod, qual, _, _ in public_functions()]


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


def calls_by_name():
    """{called name: [(positional count, keywords passed, has * or **)]}."""
    calls = {}
    for d in CALLER_DIRS:
        for path in sorted((ROOT / d).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if not isinstance(node, ast.Call):
                    continue
                f = node.func
                name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
                spread = (any(isinstance(a, ast.Starred) for a in node.args)
                          or any(k.arg is None for k in node.keywords))
                calls.setdefault(name, []).append(
                    (len(node.args), {k.arg for k in node.keywords}, spread))
    return calls


def unset_options():
    """(qualified name, parameter) of every default that no call overrides."""
    calls = calls_by_name()
    unset = []
    for _, qual, node, bound in public_functions():
        name, args = node.name, node.args
        positional = (args.posonlyargs + args.args)[bound:]
        optional = [(a.arg, i) for i, a in enumerate(positional)
                    if i >= len(positional) - len(args.defaults)]
        optional += [(a.arg, None) for a, dflt in zip(args.kwonlyargs, args.kw_defaults)
                     if dflt is not None]
        for param, pos in optional:
            if not any(spread or param in kws or (pos is not None and npos > pos)
                       for npos, kws, spread in calls.get(name, [])):
                unset.append((qual, param))
    return unset


def test_every_optional_parameter_has_a_setter():
    # a default that every caller keeps is a constant, not an option; an
    # allowlisted option that gains a setter, or is deleted, leaves the list
    assert sorted(set(unset_options()) ^ UNSET_OPTIONS) == []


def dataclass_fields():
    """(module, class.field) of every annotated field of a @dataclass in the package."""
    def is_dataclass(d):
        d = d.func if isinstance(d, ast.Call) else d
        return getattr(d, "id", getattr(d, "attr", None)) == "dataclass"

    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef) and any(map(is_dataclass, node.decorator_list)):
                out += [(path.stem, f"{node.name}.{sub.target.id}") for sub in node.body
                        if isinstance(sub, ast.AnnAssign)]
    return out


def read_attributes():
    """Every attribute name read (`obj.name` in load context) in the callers."""
    names = set()
    for d in CALLER_DIRS:
        for path in sorted((ROOT / d).rglob("*.py")):
            names.update(node.attr for node in ast.walk(ast.parse(path.read_text()))
                         if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load))
    return names


def test_every_dataclass_field_is_read():
    # a field that is built and carried but never read is dead data
    read = read_attributes()
    unread = [f"{mod}.{qual}" for mod, qual in dataclass_fields()
              if qual.split(".")[-1] not in read]
    assert unread == []


def test_traced_names_exist():
    # perfbench/tracer.py wraps these by name; one that is renamed or deleted
    # breaks the traced benchmark run, which no other test runs
    tree = ast.parse((ROOT / "perfbench" / "tracer.py").read_text())
    (targets,) = [node.value for node in tree.body if isinstance(node, ast.Assign)
                  and any(getattr(t, "id", None) == "TARGETS" for t in node.targets)]
    names = [(elt.elts[0].value, elt.elts[1].value) for elt in targets.elts]
    assert names
    missing = [f"{mod}.{fn}" for mod, fn in names
               if not callable(getattr(importlib.import_module(f"ternary_cubics.{mod}"),
                                       fn, None))]
    assert missing == []


def unused_imports(path):
    """The names a module imports and never reads, in import order.  A name
    counts as read where it appears as a name in the module's code; strings
    and docstrings do not count."""
    tree = ast.parse(path.read_text())
    imported = [alias.asname or alias.name.split(".")[0] for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in read]


def test_every_import_is_used():
    # a deletion that leaves an import behind leaves a dead name in the module
    unused = {path.stem: names for path in sorted(PACKAGE.glob("*.py"))
              if (names := unused_imports(path))}
    assert unused == {}
