"""The benchmark workloads, run inside a fresh interpreter.

Each workload is one cold round of anchored operations.  An operation is one
result with a published or independently derived anchor; a result that
differs from its anchor, or an exception, counts as failed.  Workloads call
only the public functions of the library.
"""

import random
import time
import traceback
from math import comb

from ternary_cubics import (brackets, characters, cli, ideals, linalg, loci,
                            resolution, tableaux)

import hostref

# The seed draws two of these primes for the kernels workload.  Each one was
# checked to give every kernels anchor on its own, so no pair is unlucky.
KERNEL_PRIMES = (65537, 786433, 999983, 1000003, 1000033, 1000037, 1000039,
                 1048573)

# Kernels past the generator degree, anchored by the Hilbert numerator:
# dim I_j = C(j+9, 9) - H(j).  (empty, 6) stands in for the degree-8 kernel of
# the empty locus, whose ~24 s per round does not fit the run budget.
HILBERT_ANCHORED_KERNELS = (("neq", 4), ("y", 4), ("delta", 5), ("empty", 6))

# as in verify-all's hilbert checks: two sample seeds per locus
HILBERT_PRIME = 1000003
HILBERT_LMAX = 6

# verify-all runs serially: two threads on the two cores of a shared host
# fight over the GIL, and the rounds spread past any useful bound.  The
# checks on the degree-8 piece of the empty locus and those that expand
# Phi814 are left out to fit the run budget.  The spectral identities and
# S^8(S^3) are left out because the symbolic workload computes exactly them;
# that keeps a round near 5 s, so a run holds four or five rounds to take the
# median of.
VERIFY_LMAX = 5
VERIFY_EXCLUDED = ("kernel-empty-8", "syzygy-empty-8", "isotypic-Phi814-empty",
                   "vanishing-Phi814-empty", "concomitant-types", "sym8-product",
                   *(f"identity-{name}" for name in resolution.IDENTITY_NAMES))


class Ops:
    """Counts anchored operations, keeps the failed ones and times the work.

    Timed calls are grouped into stretches of at least STRETCH_S of work,
    with the host reference (hostref.py) read between stretches, so that its
    cost stays small next to the work.  Wall and CPU time are summed both as
    measured (`raw_*`) and scaled to the nominal host (`wall_s`, `cpu_s`).
    """

    STRETCH_S = 0.25

    def __init__(self):
        self.attempted = 0
        self.failures = []
        self.wall_s = self.cpu_s = self.raw_wall_s = self.raw_cpu_s = 0.0
        self.readings = [hostref.slowness()]
        self._wall = self._cpu = 0.0  # the open stretch

    def measure(self, compute):
        """compute(), timed as part of the open stretch."""
        w0, c0 = time.perf_counter(), time.process_time()
        try:
            return compute()
        finally:
            self._wall += time.perf_counter() - w0
            self._cpu += time.process_time() - c0
            if self._wall >= self.STRETCH_S:
                self.close()

    def close(self):
        """End the open stretch: read the host and add up its times."""
        if not self._wall:
            return
        self.readings.append(hostref.slowness())
        k = hostref.scale(self.readings[-2], self.readings[-1])
        self.raw_wall_s += self._wall
        self.raw_cpu_s += self._cpu
        self.wall_s += self._wall * k
        self.cpu_s += self._cpu * k
        self._wall = self._cpu = 0.0

    def check(self, op_id, compute, anchor):
        """Time compute(); the op passes when anchor(result) is true."""
        try:
            ok = anchor(self.measure(compute))
        except Exception:  # a crashed operation is a failed operation
            self.attempted += 1
            self.failures.append(f"{op_id}: {traceback.format_exc(limit=-3)}")
            return
        self.verdict(op_id, ok)

    def verdict(self, op_id, ok):
        self.attempted += 1
        if not ok:
            self.failures.append(f"{op_id}: differs from its anchor")


def kernels(seed, ops):
    primes = tuple(random.Random(seed).sample(KERNEL_PRIMES, 2))
    syzygies = {(lid, deg): (dim, dec) for lid, deg, dim, dec in cli.SYZYGY_ANCHORS}
    for lid, deg, dim, dec in cli.KERNEL_ANCHORS:
        if (lid, deg) == ("empty", 8):
            continue
        ops.check(f"kernel-{lid}-{deg}",
                  lambda: ideals.graded_kernel(lid, deg, primes),
                  lambda gp: (gp.dimension(), gp.decomposition) == (dim, dec))
        if (lid, deg) in syzygies:
            sdim, sdec = syzygies[(lid, deg)]
            ops.check(f"syzygy-{lid}-{deg}",
                      lambda: ideals.syzygy_kernel(lid, deg, primes),
                      lambda sp: (sp.dimension(), sp.decomposition) == (sdim, sdec))
    for lid, deg in HILBERT_ANCHORED_KERNELS:
        dim = comb(deg + 9, 9) - resolution.hilbert_from_numerator(lid, deg)
        ops.check(f"kernel-{lid}-{deg}",
                  lambda: ideals.graded_kernel(lid, deg, primes),
                  lambda gp: gp.dimension() == dim)


def hilbert(seed, ops):
    for lid in loci.LOCI:
        for point_seed in (seed, seed + 1):
            for ell in range(1, HILBERT_LMAX + 1):
                expected = resolution.hilbert_from_numerator(lid, ell)
                ops.check(f"hilbert-{lid}-{ell}-{point_seed}",
                          lambda: ideals.hilbert_value(lid, ell, prime=HILBERT_PRIME,
                                                       seed=point_seed),
                          lambda h: h == expected)


def symbolic(seed, ops):
    # the inputs are the paper's fixed catalog; the seed only sets the order
    rng = random.Random(seed)
    names = sorted(brackets.CATALOG)
    rng.shuffle(names)
    for name in names:
        declared = brackets.CATALOG_TYPES[name]

        def expand_and_project():
            conc = brackets.catalog_concomitant(name)
            coeffs, tabs, _ = tableaux.harmonic_project(conc.poly)
            return conc, coeffs, tabs

        def anchored(result):
            conc, coeffs, tabs = result
            _, dx, du = declared
            return (not conc.is_zero and conc.ctype.as_tuple()[:3] == declared
                    and len(tabs) == tableaux.harmonic_dimension(dx, du)
                    and any(coeffs))

        ops.check(f"catalog-{name}", expand_and_project, anchored)

    def sym8():
        return characters.decompose(characters.sym_power(8, characters.weyl_character(3, 0)))

    def sym8_anchor(dec):
        # S^8(S^3 V) has dimension C(17, 9) and holds (5,4) and (5,1) once
        mults = dict(dec)
        return (sum(m * characters.dim_irrep(a, b) for (a, b), m in dec) == comb(17, 9)
                and mults.get((5, 4)) == 1 and mults.get((5, 1)) == 1)

    ops.check("decompose-sym8", sym8, sym8_anchor)
    identities = list(resolution.IDENTITY_NAMES)
    rng.shuffle(identities)
    for name in identities:
        ops.check(f"identity-{name}", lambda: resolution.spectral_identity(name),
                  lambda r: r["ok"] is True)


def verify_check_ids():
    return [cid for cid, _ in cli.build_checks() if cid not in VERIFY_EXCLUDED]


def verify_all(seed, ops):
    build = cli.build_checks
    checks = [(cid, fn) for cid, fn in build() if cid not in VERIFY_EXCLUDED]
    config = {"primes": linalg.DEFAULT_PRIMES, "seed": seed,
              "threads": 1, "lmax": VERIFY_LMAX, "timings": False}
    results = []
    try:
        # one check per verify-all call, all in one process so the module
        # caches carry over as in one call: a stretch of timed work can then
        # end between checks, not only after the whole 9 s
        for check in checks:
            cli.build_checks = lambda: [check]
            results += ops.measure(lambda: cli.run_verify_all(config))["checks"]
    finally:
        cli.build_checks = build
    statuses = {c["id"]: c["status"] for c in results}
    for cid in verify_check_ids():
        ops.verdict(cid, statuses.get(cid) == "pass")


WORKLOADS = {
    "kernels": kernels,
    "hilbert": hilbert,
    "symbolic": symbolic,
    "verify-all": verify_all,
}
