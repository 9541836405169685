"""Tests of the benchmark itself.

    python3 -m pytest -q perfbench/test_benchmark.py

The exact-counter test runs traced rounds of the serial workloads twice
(about a minute on two cores).
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import run  # noqa: E402
import tracer  # noqa: E402

sys.path.insert(0, str(run.SRC))
import workloads  # noqa: E402

# counts that depend only on the code and the seed, never on timing
EXACT = ("linalg.madds", "linalg.rank_sum", "linalg.nullspace_calls",
         "linalg.rank_calls", "characters.decompose_calls", "brackets.expanded_terms")


@pytest.mark.parametrize("workload", ["kernels", "hilbert", "symbolic"])
def test_exact_counters_repeat(workload):
    (run.OUT / "spans").mkdir(parents=True, exist_ok=True)
    deadline = time.monotonic() + 600
    first, second = (run.run_round(workload, 3, True, i, deadline) for i in (0, 1))
    assert "error" not in first and "error" not in second
    assert not first["failures"] and not second["failures"]
    assert {k: first["layers"][k] for k in EXACT} == {k: second["layers"][k] for k in EXACT}


def test_benchmark_json_names_every_metric():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    layers = tracer.layer_metrics([], workloads.verify_check_ids())
    assert sorted(m["name"] for m in spec["per_layer"]) == sorted([*layers, "trace.overhead"])
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert list(workloads.WORKLOADS) == list(run.WORKLOADS)


def test_layer_metrics_self_time_and_nesting():
    def span(sid, parent, name, start, end, **attrs):
        return {"id": sid, "parent": parent, "name": name, "thread": 1,
                "start": start, "end": end, "attrs": attrs}

    spans = [
        span(1, None, "ideals.graded_kernel", 0.0, 10.0, locus="tact", degree=5),
        span(2, 1, "linalg.nullspace_mod", 1.0, 4.0, rows=5, cols=3, rank=2,
             item=["tact", 5, 7, 1]),
        span(3, 1, "linalg.nullspace_mod", 5.0, 6.0, rows=2, cols=2, rank=1,
             item=["tact", 5, 7, 1]),
        span(4, 1, "characters.decompose", 7.0, 8.0),
        span(5, None, "loci.sample", 20.0, 23.0),
        span(6, 5, "loci.sample_params", 21.0, 22.0),
    ]
    m = tracer.layer_metrics(spans, ["kernel-tact-5"])
    assert m["ideals.kernel_self_s"] == 10.0 - 3.0 - 1.0 - 1.0
    assert m["linalg.nullspace_calls"] == 2
    assert m["linalg.madds"] == 5 * 3 * 2 + 2 * 2 * 1
    assert m["linalg.rank_sum"] == 3
    assert m["ideals.kernel_useful_ratio"] == 0.5
    assert m["loci.sample_s"] == 3.0
    assert m["cli.check_ms.kernel-tact-5"] == 0.0


def test_refuses_a_directory_without_the_library():
    bare = run.OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    for path in HERE.glob("*.py"):
        shutil.copy(path, bare / "perfbench")
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "kernels",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=60)
    shutil.rmtree(bare)
    assert proc.returncode != 0
    assert proc.stdout == ""
