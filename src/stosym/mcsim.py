"""Numerical cross-validation: Euler-Maruyama simulation and two-sample
comparison of ensembles by Bonferroni-corrected Kolmogorov-Smirnov tests.

Noise comes from numpy's Philox counter-based generator keyed by the seed;
the increment stream has a fixed (step, path, channel) layout, so results
are reproducible regardless of how the path loop is scheduled.

`euler_maruyama` keeps the state coordinate-major, one contiguous row of
n_paths values per coordinate. Once the parameters are bound, the drift
and the structurally nonzero sigma entries are one lambdified field of
those rows, with common subexpressions eliminated across all of them;
constant entries enter as floats. The increments sigma dW are one sparse
contraction over the nonzero entries, whatever the noise class.

The normals are drawn in blocks of whole steps, about 1 MB each. A C-order
(steps, paths, channels) block holds exactly the sequence that one draw
per step gives, so every seed keeps its stream. One worker thread draws
the next block, outside the GIL, while the current one is integrated; a
block the worker has not started when it is needed is drawn in line
instead, and no thread outlives the call.

`compare_ensembles` decides by one Bonferroni-corrected family of
two-sample KS tests; its report (schema 2) also names the worst slice.
"""
from __future__ import annotations

import os
import struct
from concurrent.futures import ThreadPoolExecutor
from contextlib import closing
from dataclasses import dataclass

import numpy as np
import sympy as sp
from scipy import stats

from .model import DiscreteMap, ItoSystem

__all__ = [
    "BlowupError", "InputError", "Ensemble", "ComparisonReport",
    "euler_maruyama", "compare_ensembles", "validate_symmetry_mc",
    "export_binary", "load_binary",
]

_MAGIC = b"STOSYMEN"
_VERSION = 1
# magic, version, n, n_paths, n_stored_steps, dt, seed
_HEADER = struct.Struct("<8sqqqqdq")


class InputError(ValueError):
    """An argument or a parameter binding a simulation or a comparison
    cannot use: an unbound parameter, a bad or non-finite step or horizon,
    a candidate with a time component, too few paths."""


class BlowupError(RuntimeError):
    def __init__(self, path, step, t, what="value"):
        super().__init__(f"non-finite {what} in path {path} at step {step} (t={t:.6g})")
        self.path = path
        self.step = step


@dataclass(frozen=True)
class Ensemble:
    times: np.ndarray   # (n_stored,)
    paths: np.ndarray   # (n_paths, n_stored, n)
    seed: int
    dt: float
    n_paths: int

    def __post_init__(self):
        if not np.all(np.diff(self.times) > 0):
            raise ValueError("sample times must be strictly increasing")
        if not np.all(np.isfinite(self.paths)):
            raise ValueError("ensemble contains non-finite values")

    @property
    def n(self):
        return self.paths.shape[2]


def _bind(exprs, ctx, params):
    """The coefficient expressions with the parameter values substituted;
    only state variables and time may remain free."""
    subs = {}
    for name, val in dict(params or {}).items():
        subs[ctx.symbol(name) if isinstance(name, str) else name] = sp.sympify(val)
    allowed = {*ctx.spatial, ctx.t}
    bound = []
    for e in exprs:
        e = sp.sympify(e).subs(subs)
        free = e.free_symbols - allowed
        if free:
            names = ", ".join(sorted(s.name for s in free))
            raise InputError(f"coefficient not numeric-evaluable, unbound: {names}")
        bound.append(e)
    return bound


def _row_field(exprs, ctx):
    """An evaluator (X[n, n_paths], t) -> list of the k bound expressions
    on the coordinate rows of X: a float for a constant entry, else an
    array or a scalar, which may be a row of X itself and must not be
    written to. The non-constant entries are one lambdified function with
    common subexpressions computed once."""
    consts = [None if e.free_symbols else float(e) for e in exprs]
    varying = [j for j, c in enumerate(consts) if c is None]
    fn = sp.lambdify((*ctx.spatial, ctx.t), [exprs[j] for j in varying],
                     modules="numpy", cse=True)

    def evaluate(X, t):
        out = list(consts)
        for j, val in zip(varying, fn(*X, t)):
            out[j] = val
        return out
    return evaluate


# Bytes of normals per drawn block: large enough that drawing the next block
# overlaps several steps, small enough to add little to peak memory.
_BLOCK_BYTES = 1 << 20


def _increments(seed, n_steps, n_paths, m, dt):
    """Yield the Wiener increments sqrt(dt) z of each step as an
    (m, n_paths) array, from the seed's Philox stream in its per-step
    (path, channel) order. Blocks of whole steps are drawn one ahead on a
    worker thread; closing the generator joins it. The yielded array is
    overwritten by the next step."""
    rng = np.random.Generator(np.random.Philox(key=seed))
    k = max(1, _BLOCK_BYTES // (8 * n_paths * max(m, 1)))
    n_blocks = -(-n_steps // k)
    blocks = (np.empty((k, n_paths, m)), np.empty((k, n_paths, m)))
    dW = np.empty((m, n_paths))
    sqrt_dt = np.sqrt(dt)

    def draw(b):
        block = blocks[b % 2][:min(k, n_steps - b * k)]
        rng.standard_normal(out=block)
        return block

    pool = ThreadPoolExecutor(max_workers=1)
    try:
        pending = None
        for b in range(n_blocks):
            # a block the worker has not started is drawn here, so a worker
            # that gets no core never stalls the loop
            if pending is None or pending.cancel():
                block = draw(b)
            else:
                block = pending.result()
            if b + 1 < n_blocks:
                pending = pool.submit(draw, b + 1)
            for z in block:
                np.multiply(z.T, sqrt_dt, out=dW)
                yield dW
    finally:
        pool.shutdown(cancel_futures=True)


def euler_maruyama(ito: ItoSystem, x0, t0, t1, dt, n_paths, seed,
                   params=None, store_every=None) -> Ensemble:
    """Euler-Maruyama with independent Gaussian increments of variance dt
    per noise channel; deterministic given the seed."""
    if not np.isfinite([t0, t1, dt]).all():
        raise InputError("t0, t1 and dt must be finite")
    if dt <= 0:
        raise InputError("dt must be positive")
    if n_paths < 1:
        raise InputError("n_paths must be positive")
    n, m = ito.n, ito.m
    n_steps = int(round((t1 - t0) / dt))
    if n_steps < 1:
        raise InputError("time horizon shorter than one step")
    if store_every is None:
        store_every = max(1, n_steps // 10)
    ctx = ito.context
    exprs = _bind(ito.f, ctx, params)
    sigma = _bind([e for row in ito.sigma for e in row], ctx, params)
    # row i of the increment: a sum over its nonzero sigma entries, each
    # given as (its slot in the field, its channel)
    terms = [[] for _ in range(n)]
    for i in range(n):
        for k in range(m):
            if not sigma[i * m + k].is_zero:
                terms[i].append((len(exprs), k))
                exprs.append(sigma[i * m + k])
    field = _row_field(exprs, ctx)

    X = np.empty((n, n_paths))
    X[:] = np.asarray(x0, dtype=float).reshape(n, 1)
    Y = np.empty_like(X)
    noise = np.empty(n_paths)
    paths = np.empty((n_paths, 1 + -(-n_steps // store_every), n))
    paths[:, 0, :] = X.T
    times = [t0]
    t = t0
    dWs = _increments(seed, n_steps, n_paths, m, dt)
    # a path that overflows is reported below as a BlowupError
    with closing(dWs), np.errstate(over="ignore", invalid="ignore"):
        for step, dW in enumerate(dWs, start=1):
            vals = field(X, t)
            for i, row in enumerate(terms):
                y = Y[i]
                np.multiply(vals[i], dt, out=y)
                np.add(X[i], y, out=y)
                for slot, k in row:
                    np.multiply(vals[slot], dW[k], out=noise)
                    np.add(y, noise, out=y)
            X, Y = Y, X
            t = t0 + step * dt
            if not np.isfinite(X.sum()):
                bad = np.flatnonzero(~np.isfinite(X).all(axis=0))
                if bad.size:
                    raise BlowupError(int(bad[0]), step, t)
            if step % store_every == 0 or step == n_steps:
                paths[:, len(times), :] = X.T
                times.append(t)
    return Ensemble(times=np.asarray(times), paths=paths,
                    seed=seed, dt=dt, n_paths=n_paths)


@dataclass(frozen=True)
class ComparisonReport:
    entries: tuple      # per (time, coordinate): its KS p-value
    significance: float
    n_tests: int
    verdict: bool

    def to_dict(self):
        worst = min(self.entries, key=lambda e: e["ks_pvalue"])
        return {
            "schema": 2,
            "significance": self.significance,
            "n_tests": self.n_tests,
            "verdict": "pass" if self.verdict else "fail",
            "min_pvalue": worst["ks_pvalue"],
            "worst_slice": {"time": worst["time"],
                            "coordinate": worst["coordinate"]},
            "entries": list(self.entries),
        }


def _check_comparison(significance, n_paths):
    if not 0 < significance < 1:
        raise InputError(f"significance must lie in (0, 1), got {significance}")
    if n_paths < 2:
        raise InputError("an ensemble comparison needs at least 2 paths")


def compare_ensembles(a: Ensemble, b: Ensemble, significance=0.01) -> ComparisonReport:
    """Two-sample Kolmogorov-Smirnov tests of two independently generated
    ensembles, one per (time, coordinate) slice after the initial time.
    The verdict passes iff every slice's p-value is at least
    significance / n_tests (Bonferroni), so a true null fails with
    probability at most `significance`.

    Raises InputError for a significance outside (0, 1), fewer than 2
    paths or no stored time after the initial one."""
    _check_comparison(significance, min(len(a.paths), len(b.paths)))
    if a.paths.shape[2] != b.paths.shape[2] or len(a.times) != len(b.times):
        raise ValueError("ensembles have mismatched shapes")
    if not np.allclose(a.times - a.times[0], b.times - b.times[0]):
        raise ValueError("ensembles have mismatched sample times")
    if len(a.times) < 2:
        raise InputError("an ensemble comparison needs a stored time after "
                         "the initial one")
    entries = []
    # slice 0 is the deterministic initial condition
    for ti in range(1, len(a.times)):
        for ci in range(a.n):
            xa = a.paths[:, ti, ci]
            xb = b.paths[:, ti, ci]
            if np.ptp(xa) == 0 and np.ptp(xb) == 0:
                p = 1.0 if xa[0] == xb[0] else 0.0
            else:
                p = float(stats.ks_2samp(xa, xb).pvalue)
            entries.append({"time": float(a.times[ti]), "coordinate": ci,
                            "ks_pvalue": p})
    n_tests = len(entries)
    verdict = all(e["ks_pvalue"] >= significance / n_tests for e in entries)
    return ComparisonReport(entries=tuple(entries), significance=significance,
                            n_tests=n_tests, verdict=verdict)


# RK4 steps of the flow exp(eps xi): a local error of order (eps/8)^5 at
# eps of order 0.3, far below the sampling noise, for little work next to EM
_FLOW_STEPS = 8


def _move(ens: Ensemble, candidate, ctx, params, epsilon) -> Ensemble:
    """Every stored state moved through the candidate at its own t: by phi,
    or by the flow exp(eps xi) integrated by RK4 in eps. A moved value that
    is not finite raises BlowupError."""
    is_map = isinstance(candidate, DiscreteMap)
    field = _row_field(_bind(candidate.phi if is_map else candidate.xi,
                             ctx, params), ctx)

    def at(X, t):  # the entries, constants too, as one (n, n_paths) array
        return np.array(np.broadcast_arrays(X[0], *field(X, t))[1:])

    h = epsilon / _FLOW_STEPS
    out = np.empty_like(ens.paths)
    with np.errstate(all="ignore"):
        for ti, t in enumerate(ens.times):
            X = np.ascontiguousarray(ens.paths[:, ti, :].T)
            if is_map:
                X = at(X, t)
            else:
                for _ in range(_FLOW_STEPS):
                    k1 = at(X, t)
                    k2 = at(X + h / 2 * k1, t)
                    k3 = at(X + h / 2 * k2, t)
                    X = X + h / 6 * (k1 + 2 * k2 + 2 * k3 + at(X + h * k3, t))
            bad = np.flatnonzero(~np.isfinite(X).all(axis=0))
            if bad.size:
                step = int(round((t - ens.times[0]) / ens.dt))
                raise BlowupError(int(bad[0]), step, t, what="moved value")
            out[:, ti, :] = X.T
    return Ensemble(times=ens.times, paths=out, seed=ens.seed,
                    dt=ens.dt, n_paths=ens.n_paths)


def validate_symmetry_mc(ito: ItoSystem, candidate, x0, t0=0.0, t1=1.0,
                         dt=1e-3, n_paths=10_000, seed=12345, epsilon=0.3,
                         significance=0.01, params=None) -> ComparisonReport:
    """Simulate the system, move every stored state through the candidate
    (a DiscreteMap by phi; a VectorField or WSymmetry with tau = 0 by the
    flow exp(eps xi) at the state's own t, without beta or B), and compare
    the moved ensemble with the same system started at the moved point.

    Only one-time marginals of the two laws are compared, so a Fokker-Planck
    statistical equivalence (Gamma != 0) passes too. Raises InputError
    before simulating for tau != 0, an epsilon that is zero or not finite,
    or what `compare_ensembles` rejects."""
    if not isinstance(candidate, DiscreteMap):
        if candidate.tau != 0:
            raise InputError("pathwise validation supports spatial maps only "
                             "(tau = 0)")
        if not (np.isfinite(epsilon) and epsilon != 0):
            raise InputError(f"epsilon must be finite and nonzero, got {epsilon}")
    _check_comparison(significance, n_paths)
    base = euler_maruyama(ito, x0, t0, t1, dt, n_paths, seed, params=params)
    moved = _move(base, candidate, ito.context, params, epsilon)
    other = euler_maruyama(ito, moved.paths[0, 0, :], t0, t1, dt, n_paths,
                           seed + 1, params=params)
    return compare_ensembles(moved, other, significance=significance)


def export_binary(ens: Ensemble, path):
    """Flat little-endian layout: a header (the magic b"STOSYMEN", then the
    format version, n, n_paths and n_stored_steps as int64, dt as float64
    and seed as int64), the row-major double payload of the path array,
    then the stored times as doubles."""
    header = _HEADER.pack(_MAGIC, _VERSION, ens.n, ens.n_paths,
                          len(ens.times), float(ens.dt), int(ens.seed))
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(np.ascontiguousarray(ens.paths, dtype="<f8").tobytes())
        fh.write(np.ascontiguousarray(ens.times, dtype="<f8").tobytes())


def load_binary(path) -> Ensemble:
    """Read a file written by `export_binary`. Raises ValueError unless the
    magic and version match and the file is exactly as long as its header
    says."""
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        if size < _HEADER.size:
            raise ValueError(f"{path}: truncated header: expected "
                             f"{_HEADER.size} bytes, got {size}")
        magic, version, n, n_paths, n_stored, dt, seed = \
            _HEADER.unpack(fh.read(_HEADER.size))
        if magic != _MAGIC:
            raise ValueError(f"{path}: not a stosym ensemble file "
                             f"(magic {magic!r})")
        if version != _VERSION:
            raise ValueError(f"{path}: unsupported ensemble format "
                             f"version {version}")
        if min(n, n_paths, n_stored) < 1:
            raise ValueError(f"{path}: bad shape n={n}, n_paths={n_paths}, "
                             f"n_stored={n_stored}")
        n_values = n_paths * n_stored * n
        expected, actual = 8 * (n_values + n_stored), size - _HEADER.size
        if actual != expected:
            raise ValueError(f"{path}: payload is {actual} bytes, expected "
                             f"{expected} (8*n_paths*n_stored*n + 8*n_stored)")
        paths = np.fromfile(fh, dtype="<f8", count=n_values)
        times = np.fromfile(fh, dtype="<f8", count=n_stored)
    return Ensemble(times=times, paths=paths.reshape(n_paths, n_stored, n),
                    seed=seed, dt=dt, n_paths=n_paths)
