"""Host-speed calibration for the end-to-end timings.

On a shared host the speed of this process drifts: in trials on a 2-vCPU
virtual machine the same fixed computation took anywhere between 1x and 2x
its fastest time, in phases lasting seconds to minutes, with almost no
steal time, so CPU time drifts just as wall time does. A run of tens of
seconds then lands in one phase or another, and its timings say more about
the neighbours than about the program.

So the benchmark times a fixed reference computation, which does not touch
stosym, between ops, and rescales each op's latency by how slow the host
was around it:

    normalized = latency * NOMINAL_S / calibration at the op's midpoint

where the calibration at a moment is interpolated linearly between the
two calibrations that bracket the op. Calibrations come once at least
`interval_s` of op time has passed since the last one, so that short ops
share them.

`NOMINAL_S` is a constant, the reference computation's time in a fast
phase of that machine, so a normalized time reads as the latency the op
would have on that machine when it is not contended. The reference
computation has three parts: sparse polynomial products on dicts of
exponent tuples in pure Python (the kind of work sympy does), in-place
sweeps over NumPy arrays larger than the L2 cache (the kind of work the
Euler-Maruyama loop does), and an interpreted pointer chase through a
16 MB table (interpreter work whose loads miss the caches, as sympy's do
across its heap). In trials that alternated solver and manifest ops with
candidate reference computations for a few minutes, this mix tracked the
ops best of the candidates tried (NumPy-only computations slowed by less
than the ops, pure-Python loops on small data by more), and the rescaling
took out about half of the ops' variance; the rest changes faster than
calibrations between ops can follow, and the medians over passes absorb
it. The correction is not complete: across runs in slow and fast phases
the symbolic workloads' normalized throughput still fell about 0.4 times
as fast as the reference slowed (in log terms), about 10% between the
phases seen, where raw throughput fell 1.5 times as fast; the
Monte-Carlo workload was corrected fully.

The tables stay allocated for the whole run, so they add about 25 MB to
the process's peak resident set.
"""
from __future__ import annotations

import array
import gc
import random
import time

import numpy as np

# time of one `reference()` call in a fast phase of a 2-vCPU shared x86_64
# virtual machine (Python 3, NumPy with one thread)
NOMINAL_S = 0.030

_rng = random.Random(20260417)
_P = {tuple(_rng.randrange(4) for _ in range(3)): _rng.randrange(1, 10)
      for _ in range(40)}
_Q = {tuple(_rng.randrange(4) for _ in range(3)): _rng.randrange(-9, 0)
      for _ in range(40)}
_A = np.random.default_rng(20260417).standard_normal(200_000)
# the sweeps work in place: a fresh array each time would time the memory
# allocator, whose state depends on what the program allocated before
_X = np.empty_like(_A)
_T = np.empty_like(_A)
# one cycle through 4M int32 slots in random order, built without large
# temporaries, which would raise the peak resident set
_CHAIN = array.array("i", [0]) * (1 << 22)
_order = np.arange(1 << 22, dtype=np.int32)
np.random.default_rng(20260417).shuffle(_order)
_links = np.frombuffer(_CHAIN, dtype=np.int32)
_links[_order[:-1]] = _order[1:]
_links[_order[-1]] = _order[0]
del _order, _links


def _sparse_products():
    p = _P
    for _ in range(2):
        out = {}
        for ea, ca in p.items():
            for eb, cb in _Q.items():
                e = tuple(x + y for x, y in zip(ea, eb))
                out[e] = out.get(e, 0) + ca * cb
        p = {e: c for e, c in out.items() if c}
    return len(p)


def _array_sweeps():
    np.copyto(_X, _A)
    for _ in range(20):
        np.abs(_X, out=_T)
        np.sqrt(_T, out=_T)
        np.multiply(_X, 0.999, out=_X)
        np.add(_X, _T, out=_X)
    return float(_X[0])


def _pointer_chase():
    i = 0
    for _ in range(60_000):
        i = _CHAIN[i]
    return i


def reference():
    _sparse_products()
    _array_sweeps()
    _pointer_chase()


def measure():
    """Seconds one reference computation takes now, with the collector off
    so that the program's heap does not leak into the figure."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        reference()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class Calibrator:
    """Calibrates between ops, once at least `interval_s` seconds of op
    time have passed since the last calibration, and hands each op its
    normalized latency once the calibration after it is known."""

    def __init__(self, interval_s):
        self.interval = interval_s
        self.samples = []
        measure()  # first call pays for page faults and lazy set-up
        self._before = self._sample()
        self._pending = []  # (key, latency, midpoint) since the last one
        self._since = 0.0

    def _sample(self):
        s = measure()
        self.samples.append(s)
        return s

    def add(self, key, latency, out):
        """Record `latency` of op `key`; once a calibration closes the
        current stretch of ops, write each of its ops' normalized latency
        into `out`."""
        self._pending.append((key, latency, self._since + latency / 2))
        self._since += latency
        if self._since >= self.interval:
            self.flush(out)

    def flush(self, out):
        """Close the current stretch of ops (at the end of a pass)."""
        if not self._pending:
            return
        before, after = self._before, self._sample()
        for key, latency, mid in self._pending:
            share = mid / self._since if self._since > 0 else 0.5
            at_mid = before + (after - before) * share
            out[key] = latency * NOMINAL_S / at_mid
        self._before, self._pending, self._since = after, [], 0.0


def normalize_once(latency):
    """`latency` of something that has just ended, normalized by the
    median of three calibrations taken right after it (used for the set-up
    time)."""
    measure()
    return latency * NOMINAL_S / sorted(measure() for _ in range(3))[1]
