"""Outside-in span recorder for the ternary_cubics layers.

The recorder replaces public library functions with wrappers that record one
span per call: name, start, end, parent span and thread.  Nothing inside the
library changes; a function is wrapped at every module binding that refers to
it, so calls made by name inside the package (`ideals` and `resolution`
import `decompose` from `characters`) are recorded too.  Spans stay in memory
and are written as JSON lines when the traced process ends.

Per-layer metrics are computed from the spans: a layer's time is the summed
duration of its outermost spans, its self time is each span's duration minus
that of its direct children.  In a threaded workload durations from both
threads add up, so a layer time can exceed the wall time.
"""

import functools
import itertools
import json
import sys
import threading
import time

# Hooks fill a span's attrs: `before(rec, args)` runs at the call,
# `after(rec, args, result, recorder)` when it returns.


def _elimination(rec, args, result, recorder):
    rows, cols = args[0].shape
    rank = result if isinstance(result, int) else cols - result.shape[1]
    rec["attrs"].update(rows=rows, cols=cols, rank=rank)


def _nullspace(rec, args, result, recorder):
    _elimination(rec, args, result, recorder)
    # a kernel work item is (locus, degree, prime, block ordinal) inside the
    # innermost graded_kernel call; two threads computing the same kernel
    # produce the same items
    owner = next((s for s in reversed(recorder.stack())
                  if s["name"] == "ideals.graded_kernel"), None)
    if owner is not None:
        p = args[1]
        seen = owner.setdefault("_blocks", {})
        seen[p] = seen.get(p, 0) + 1
        a = owner["attrs"]
        rec["attrs"]["item"] = [a["locus"], a["degree"], p, seen[p]]


def _kernel_args(rec, args):
    rec["attrs"].update(locus=args[0], degree=args[1])


def _expand(rec, args, result, recorder):
    rec["attrs"]["terms"] = len(result.poly.terms)


# (module, function, before, after)
TARGETS = [
    ("linalg", "nullspace_mod", None, _nullspace),
    ("linalg", "rank_mod", None, _elimination),
    ("linalg", "nullity_mod", None, None),
    ("linalg", "in_rowspan_mod", None, None),
    ("ideals", "graded_kernel", _kernel_args, None),
    ("ideals", "hilbert_value", None, None),
    ("ideals", "syzygy_kernel", None, None),
    ("ideals", "isotypic_match", None, None),
    ("ideals", "concomitant_coefficients", None, None),
    ("ideals", "syzygy_relation_check", None, None),
    ("brackets", "expand", None, _expand),
    ("brackets", "catalog_concomitant", None, None),
    ("tableaux", "harmonic_project", None, None),
    ("characters", "decompose", None, None),
    ("characters", "sym_power", None, None),
    ("resolution", "spectral_identity", None, None),
    ("loci", "sample", None, None),
    ("loci", "sample_params", None, None),
    ("cli", "run_verify_all", None, None),
]


class Recorder:
    """Spans of one traced process, kept in memory until `write`."""

    def __init__(self):
        self.spans = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def stack(self):
        """The calling thread's open spans, innermost last."""
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def wrap(self, name, fn, before=None, after=None, attrs=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self.stack()
            rec = {"id": next(self._ids),
                   "parent": stack[-1]["id"] if stack else None,
                   "name": name, "thread": threading.get_ident(),
                   "attrs": dict(attrs or {})}
            if before:
                before(rec, args)
            stack.append(rec)
            rec["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                if after:
                    after(rec, args, result, self)
                return result
            finally:
                rec["end"] = time.perf_counter()
                stack.pop()
                rec.pop("_blocks", None)
                self.spans.append(rec)

        return traced

    def install(self):
        """Wrap every target at each of its bindings in the package."""
        modules = [m for n, m in list(sys.modules.items())
                   if n == "ternary_cubics" or n.startswith("ternary_cubics.")]
        for modname, fname, before, after in TARGETS:
            orig = getattr(sys.modules[f"ternary_cubics.{modname}"], fname)
            traced = self.wrap(f"{modname}.{fname}", orig, before, after)
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, key, traced)
        cli = sys.modules["ternary_cubics.cli"]
        build = cli.build_checks

        def build_checks():
            return [(cid, self.wrap("cli.check", fn, attrs={"id": cid}))
                    for cid, fn in build()]

        cli.build_checks = build_checks

    def write(self, path):
        with open(path, "w") as fh:
            for rec in sorted(self.spans, key=lambda r: r["id"]):
                fh.write(json.dumps(rec) + "\n")


def layer_metrics(spans, check_ids):
    """Per-layer metrics of one traced process, keyed as in BENCHMARK.json."""
    by_id = {s["id"]: s for s in spans}
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)

    def dur(s):
        return s["end"] - s["start"]

    def outermost(names):
        out = []
        for s in spans:
            if s["name"] not in names:
                continue
            up = by_id.get(s["parent"])
            while up is not None and up["name"] not in names:
                up = by_id.get(up["parent"])
            if up is None:
                out.append(s)
        return out

    def total(*names):
        return sum(dur(s) for s in outermost(set(names)))

    def self_time(name):
        return sum(dur(s) - sum(dur(c) for c in children.get(s["id"], ()))
                   for s in spans if s["name"] == name)

    def named(name):
        return [s for s in spans if s["name"] == name]

    elim = named("linalg.nullspace_mod") + named("linalg.rank_mod")
    items = [tuple(s["attrs"]["item"]) for s in named("linalg.nullspace_mod")
             if "item" in s["attrs"]]
    checks = {s["attrs"]["id"]: dur(s) for s in named("cli.check")}
    m = {
        "linalg.nullspace_s": total("linalg.nullspace_mod"),
        "linalg.nullspace_calls": len(named("linalg.nullspace_mod")),
        "linalg.rank_s": total("linalg.rank_mod"),
        "linalg.rank_calls": len(named("linalg.rank_mod")),
        "linalg.madds": sum(s["attrs"]["rows"] * s["attrs"]["cols"] * s["attrs"]["rank"]
                            for s in elim),
        "linalg.rank_sum": sum(s["attrs"]["rank"] for s in elim),
        "ideals.kernel_self_s": self_time("ideals.graded_kernel"),
        "ideals.hilbert_self_s": self_time("ideals.hilbert_value"),
        "ideals.syzygy_self_s": self_time("ideals.syzygy_kernel"),
        "ideals.isotypic_s": total("ideals.isotypic_match"),
        # no kernel blocks eliminated means no elimination was wasted
        "ideals.kernel_useful_ratio": len(set(items)) / len(items) if items else 1.0,
        "brackets.expand_s": total("brackets.expand"),
        "brackets.expanded_terms": sum(s["attrs"]["terms"] for s in named("brackets.expand")),
        "tableaux.project_s": total("tableaux.harmonic_project"),
        "characters.decompose_s": total("characters.decompose"),
        "characters.decompose_calls": len(named("characters.decompose")),
        "resolution.identity_s": total("resolution.spectral_identity"),
        "loci.sample_s": total("loci.sample", "loci.sample_params"),
    }
    for cid in check_ids:
        m[f"cli.check_ms.{cid}"] = checks.get(cid, 0.0) * 1000.0
    return m
