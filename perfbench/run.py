"""Benchmark harness: cold-process rounds of one workload.

    python3 perfbench/run.py --workload kernels --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout.  Each round starts a fresh
interpreter that imports the library from ./src, so every module cache starts
cold, runs one round of the workload and reports its times.  Rounds repeat
until --seconds have passed (at least MIN_ROUNDS).  The last line of standard
output is one JSON object {"correct", "attempted", "failed", "metrics"}:

  --trace 0  end-to-end metrics, medians over rounds: wall_s, cpu_s,
             setup_s, peak_rss_mb; the times are scaled to the speed of
             the host reference (hostref.py) read around each stretch
             of work, and the metadata line has them as measured
  --trace 1  per-layer metrics from traced rounds (medians), plus
             trace.overhead = traced wall_s / untraced wall_s; traced and
             untraced rounds alternate

The line before it carries run metadata.  Span files and a full run record
go to .perfbench/ in the checkout.  See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostref

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
WORKLOADS = ("kernels", "hilbert", "symbolic", "verify-all")
END_TO_END = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
MIN_ROUNDS = 3
HARD_LIMIT_S = 150      # start no round after this; a run stays under three minutes
ROUND_TIMEOUT_S = 120
# one process with one thread: keep numpy's thread pools out of the
# measurement, and fix string hashing
CHILD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
             "MKL_NUM_THREADS": "1", "PYTHONHASHSEED": "0"}


# ---------------------------------------------------------------------------
# one round, in a fresh interpreter
# ---------------------------------------------------------------------------

def child_main(workload, seed, trace, spawned_at, parent_slowness, span_path, setup_only):
    sys.path.insert(0, str(SRC))
    import numpy
    import ternary_cubics.cli  # noqa: F401  imports every library module
    if not Path(ternary_cubics.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"ternary_cubics imported from {ternary_cubics.__file__}, not {SRC}")
    import tracer
    import workloads
    raw_setup_s = time.monotonic() - spawned_at
    hostref.slowness()  # warm-up: the first call pays numpy's first use
    setup = {"setup_s": raw_setup_s * hostref.scale(parent_slowness, hostref.slowness()),
             "raw_setup_s": raw_setup_s}
    if setup_only:
        print(json.dumps(setup))
        return
    recorder = None
    if trace:
        recorder = tracer.Recorder()
        recorder.install()
    run = workloads.WORKLOADS[workload]
    ops = workloads.Ops()
    run(seed, ops)
    ops.close()

    out = {**setup, "wall_s": ops.wall_s, "cpu_s": ops.cpu_s,
           "raw_wall_s": ops.raw_wall_s, "raw_cpu_s": ops.raw_cpu_s,
           "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
           "slowness": statistics.median(ops.readings),
           "attempted": ops.attempted, "failures": ops.failures,
           "numpy": numpy.__version__}
    if recorder is not None:
        out["layers"] = tracer.layer_metrics(recorder.spans, workloads.verify_check_ids())
        recorder.write(span_path)
    print(json.dumps(out))


def run_round(workload, seed, traced, index, deadline, setup_only=False):
    """One fresh interpreter; with setup_only it stops before the workload."""
    span_path = OUT / "spans" / f"{workload}-seed{seed}-round{index}.jsonl"
    parent_slowness = hostref.slowness()
    cmd = [sys.executable, str(Path(__file__).resolve()), "--child",
           "--workload", workload, "--seed", str(seed), "--trace", str(int(traced)),
           "--parent-slowness", repr(parent_slowness), "--spawned-at", repr(time.monotonic()),
           "--span-path", str(span_path)]
    if setup_only:
        cmd.append("--setup-only")
    started = time.monotonic()
    timeout = max(1.0, min(ROUND_TIMEOUT_S, deadline - started))
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env={**os.environ, **CHILD_ENV},
                              capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"traced": traced, "error": f"round timed out after {timeout:.0f} s"}
    elapsed = time.monotonic() - started
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"traced": traced, "error": f"exit {proc.returncode}: {proc.stderr[-2000:]}"}
    result = json.loads(lines[-1])
    result.update(traced=traced, elapsed_s=elapsed)
    return result


# ---------------------------------------------------------------------------
# a run: rounds until the time is up
# ---------------------------------------------------------------------------

def source_digest():
    h = hashlib.sha256()
    for path in sorted((SRC / "ternary_cubics").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(SRC)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def git_revision():
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def median_of(rounds, key):
    return statistics.median(r[key] for r in rounds)


def run(workload, seed, seconds, trace):
    started = time.monotonic()
    meta = {"workload": workload, "workloads": list(WORKLOADS), "seed": seed,
            "seconds": seconds, "trace": trace, "git_revision": git_revision(),
            "source_sha256": source_digest(), "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)), "loadavg_start": os.getloadavg(),
            "python": platform.python_version()}
    (OUT / "spans").mkdir(parents=True, exist_ok=True)
    hostref.slowness()  # warm-up

    rounds, setups = [], []
    while True:
        traced = bool(trace) and len(rounds) % 2 == 0
        rounds.append(run_round(workload, seed, traced, len(rounds),
                                started + HARD_LIMIT_S))
        if "error" in rounds[-1]:
            break
        if not trace:
            # set-up alone, once per round, so setup_s has twice the samples
            probe = run_round(workload, seed, False, len(rounds), started + HARD_LIMIT_S,
                              setup_only=True)
            if "error" in probe:
                rounds.append(probe)
                break
            setups.append(probe["setup_s"])
        now = time.monotonic()
        typical = (now - started) / len(rounds)
        if now - started > HARD_LIMIT_S - typical:
            break
        if len(rounds) >= MIN_ROUNDS and now + typical > started + seconds:
            break

    good = [r for r in rounds if "error" not in r]
    plain = [r for r in good if not r["traced"]]
    failures = [f for r in good for f in r["failures"]]
    failures += [r["error"] for r in rounds if "error" in r]
    attempted = sum(r["attempted"] for r in good) + (len(rounds) - len(good))
    meta.update(loadavg_end=os.getloadavg(), rounds=len(rounds),
                numpy=good[0]["numpy"] if good else None,
                failed_share=len(failures) / max(attempted, 1),
                slowness=median_of(good, "slowness") if good else None,
                raw={k: median_of(plain, k) for k in ("raw_wall_s", "raw_cpu_s",
                                                      "raw_setup_s")} if plain else None,
                failures=failures[:20], run_s=time.monotonic() - started)

    if trace:
        traced = [r for r in good if r["traced"]]
        metrics = {}
        if traced and plain:
            for name in traced[0]["layers"]:
                unit = layer_unit(name)
                # counts stay whole numbers
                mid = statistics.median_low if unit == "count" else statistics.median
                metrics[name] = {"value": mid(r["layers"][name] for r in traced),
                                 "unit": unit}
            metrics["trace.overhead"] = {
                "value": median_of(traced, "wall_s") / median_of(plain, "wall_s"),
                "unit": "ratio"}
    elif plain:
        metrics = {name: {"value": median_of(plain, name), "unit": unit}
                   for name, unit in END_TO_END.items()}
        metrics["setup_s"]["value"] = statistics.median(
            setups + [r["setup_s"] for r in plain])
    else:
        metrics = {}

    record = {"meta": meta, "rounds": [{k: v for k, v in r.items() if k != "failures"}
                                       for r in rounds]}
    with open(OUT / f"run-{workload}-seed{seed}-trace{trace}.json", "w") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps({"meta": meta}))
    print(json.dumps({"correct": not failures and bool(metrics), "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))


def layer_unit(name):
    if name.startswith("cli.check_ms."):
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=25)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--spawned-at", type=float, help=argparse.SUPPRESS)
    p.add_argument("--parent-slowness", type=float, help=argparse.SUPPRESS)
    p.add_argument("--span-path", help=argparse.SUPPRESS)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args()
    if not (SRC / "ternary_cubics" / "__init__.py").is_file():
        print(f"error: no library source at {SRC / 'ternary_cubics'}; "
              "run from a source checkout", file=sys.stderr)
        return 2
    if args.child:
        child_main(args.workload, args.seed, args.trace, args.spawned_at, args.parent_slowness,
                   args.span_path, args.setup_only)
    else:
        run(args.workload, args.seed, args.seconds, args.trace)
    return 0


if __name__ == "__main__":
    sys.exit(main())
