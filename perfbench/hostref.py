"""The host reference: fixed computations that gauge the host's speed.

On a shared host the CPU speed a process sees swings by 20-50%, in phases
that last from seconds to minutes, with no change in the program.  The
benchmark therefore runs this reference right before and right after each
stretch of work it times, and divides the work's time by the mean slowness
read at the two ends: the result is the time the work would have taken on
the host the nominal times below were read on.

The swings do not slow every kind of code alike, so the reference has four
parts, each like some of the library's work: a tight integer loop, a dict
update over tuple keys (as in `poly` and `brackets`), and numpy row
operations modulo a prime on a small and on a wide matrix (as in `linalg`).
Slowness is the mean over the parts of time / nominal time.  Together the
parts tracked the library's rounds better than any one part alone; the
measurements are in README.md, under Run-to-run noise.

The reference is the benchmark's own code, so no change to the library
moves it.
"""

import time

import numpy as np

_P = 1000003
_KEYS = [(i % 7, (i // 7) % 11, i % 13, i // 1001) for i in range(20000)]
_SMALL = np.arange(48 * 48, dtype=np.int64).reshape(48, 48) * 7919 % _P
_WIDE = np.arange(200 * 400, dtype=np.int64).reshape(200, 400) * 7919 % _P


def _tight():
    acc = 0
    for i in range(6000):
        acc = (acc * 31 + i) % _P


def _dict():
    d = {}
    for k in _KEYS[::4]:
        d[k] = d.get(k, 0) + k[0] * k[1] % _P
    for k in _KEYS[1::4]:
        d[k] = d.get(k, 0) + 1


def _eliminate(m, rows):
    a = m.copy()
    for r in range(rows):
        a = (a - np.outer(a[:, r], a[r])) % _P


def _small_np():
    _eliminate(_SMALL, 48)


def _wide_np():
    _eliminate(_WIDE, 4)


# each part with its time in seconds on the 2-vCPU VM the benchmark was
# written on (Intel Xeon, Python 3.11.7, numpy 2.4.6), median over a few
# minutes of that host's swings
PARTS = ((_tight, 0.0007), (_dict, 0.0022), (_small_np, 0.00105), (_wide_np, 0.0036))


def _time(fn):
    t = time.perf_counter()
    fn()
    return time.perf_counter() - t


def slowness():
    """How slow the host is now, 1.0 at the nominal times.  Each part counts
    its faster of two tries, so that one interrupt does not read as a slow
    host."""
    return sum(min(_time(fn), _time(fn)) / nominal for fn, nominal in PARTS) / len(PARTS)


def scale(before, after):
    """Factor that turns a time measured between two slowness readings into
    nominal-host seconds."""
    return 2.0 / (before + after)
