"""Numerical cross-validation: Euler-Maruyama simulation and two-sample
comparison of ensembles (Kolmogorov-Smirnov plus first two moments).

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

from .model import DiscreteMap, ItoSystem, VectorField, apply_discrete, \
    transform_ito_first_order

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
    """An argument or a parameter binding a simulation cannot use: an
    unbound parameter, a bad step or horizon, a candidate with a time
    component."""


class BlowupError(RuntimeError):
    def __init__(self, path, step, t):
        super().__init__(f"non-finite value in path {path} at step {step} (t={t:.6g})")
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
    entries: tuple      # per (time, coordinate) dicts
    significance: float
    n_tests: int
    ks_pass: bool
    moment_pass: bool
    verdict: bool

    def to_dict(self):
        return {
            "schema": 1,
            "significance": self.significance,
            "n_tests": self.n_tests,
            "ks_pass": self.ks_pass,
            "moment_pass": self.moment_pass,
            "verdict": "pass" if self.verdict else "fail",
            "entries": list(self.entries),
        }


def _slice_stats(a, b, se_factor, extra_tol):
    na, nb = len(a), len(b)
    mean_a, mean_b = a.mean(), b.mean()
    var_a = a.var(ddof=1)
    var_b = b.var(ddof=1)
    se_mean = np.sqrt(var_a / na + var_b / nb)
    se_var = np.sqrt(2 * var_a**2 / max(na - 1, 1) + 2 * var_b**2 / max(nb - 1, 1))
    dmean = abs(mean_a - mean_b)
    dvar = abs(var_a - var_b)
    tol_mean = max(se_factor * se_mean, extra_tol * max(1.0, abs(mean_a)))
    tol_var = max(se_factor * se_var, extra_tol * max(1.0, abs(var_a)))
    ok = dmean <= tol_mean and dvar <= tol_var
    return ok, {"mean_diff": float(dmean), "var_diff": float(dvar),
                "mean_tol": float(tol_mean), "var_tol": float(tol_var)}


def compare_ensembles(a: Ensemble, b: Ensemble, significance=0.01,
                      use_ks=True, extra_moment_tol=0.0) -> ComparisonReport:
    """Per-time, per-coordinate two-sample KS tests (Bonferroni-corrected)
    plus first-two-moment comparisons between two independently generated
    ensembles.

    The moment tolerance is the two-sided normal quantile at the
    Bonferroni-corrected significance, in standard errors, so its
    family-wise false-alarm rate matches the KS test's."""
    if a.paths.shape[2] != b.paths.shape[2] or len(a.times) != len(b.times):
        raise ValueError("ensembles have mismatched shapes")
    if not np.allclose(a.times - a.times[0], b.times - b.times[0]):
        raise ValueError("ensembles have mismatched sample times")
    n = a.n
    # slice 0 is the deterministic initial condition
    n_tests = max(1, (len(a.times) - 1) * n)
    threshold = significance / n_tests
    se_factor = float(stats.norm.isf(threshold / 2))
    entries = []
    ks_pass = True
    moment_pass = True
    for ti in range(1, len(a.times)):
        for ci in range(n):
            xa = a.paths[:, ti, ci]
            xb = b.paths[:, ti, ci]
            entry = {"time": float(a.times[ti]), "coordinate": ci}
            if use_ks:
                if np.ptp(xa) == 0 and np.ptp(xb) == 0:
                    p = 1.0 if xa[0] == xb[0] else 0.0
                else:
                    p = float(stats.ks_2samp(xa, xb).pvalue)
                entry["ks_pvalue"] = p
                if p < threshold:
                    ks_pass = False
            ok, moments = _slice_stats(xa, xb, se_factor, extra_moment_tol)
            entry.update(moments)
            if not ok:
                moment_pass = False
            entries.append(entry)
    verdict = moment_pass and (ks_pass or not use_ks)
    return ComparisonReport(entries=tuple(entries), significance=significance,
                            n_tests=n_tests, ks_pass=ks_pass,
                            moment_pass=moment_pass, verdict=verdict)


def _push_paths(ens: Ensemble, exprs, ctx, params, epsilon=None):
    field = _row_field(_bind(exprs, ctx, params), ctx)
    out = np.empty_like(ens.paths)
    for ti, t in enumerate(ens.times):
        X = ens.paths[:, ti, :]
        for i, val in enumerate(field(np.ascontiguousarray(X.T), float(t))):
            out[:, ti, i] = val if epsilon is None else X[:, i] + epsilon * val
    return Ensemble(times=ens.times, paths=out, seed=ens.seed,
                    dt=ens.dt, n_paths=ens.n_paths)


def _invert_map(dmap: DiscreteMap):
    ctx = dmap.context
    x = ctx.spatial
    ys = sp.symbols(f"_y0:{len(x)}")
    sols = sp.solve([sp.Eq(ys[i], dmap.phi[i]) for i in range(len(x))],
                    list(x), dict=True)
    if len(sols) != 1:
        return None
    sol = sols[0]
    return tuple(sol[x[i]].subs(dict(zip(ys, x)), simultaneous=True)
                 for i in range(len(x)))


def validate_symmetry_mc(ito: ItoSystem, candidate, x0, t0=0.0, t1=1.0,
                         dt=1e-3, n_paths=10_000, seed=12345, epsilon=1e-2,
                         significance=0.01, params=None, inverse=None) -> ComparisonReport:
    """Push an ensemble of the original system through the candidate map and
    compare with an independent simulation of the transformed equation.

    VectorField candidates (tau = 0) are applied as the finite map
    y = x + eps xi(x, t); the transformed equation uses the first-order
    coefficients, so KS is skipped and moment tolerances widen by
    O(eps^2). DiscreteMap candidates are exact and use KS.
    """
    ctx = ito.context
    if isinstance(candidate, VectorField):
        if candidate.tau != 0:
            raise InputError("pathwise validation supports spatial maps only "
                             "(tau = 0)")
        base = euler_maruyama(ito, x0, t0, t1, dt, n_paths, seed, params=params)
        pushed = _push_paths(base, candidate.xi, ctx, params, epsilon=epsilon)
        eps = sp.Rational(str(epsilon))
        delta_f, delta_sigma = transform_ito_first_order(ito, candidate.xi)
        transformed = ItoSystem(
            context=ctx,
            f=tuple(ito.f[i] + eps * delta_f[i] for i in range(ito.n)),
            sigma=tuple(tuple(ito.sigma[i][k] + eps * delta_sigma[i][k]
                              for k in range(ito.m)) for i in range(ito.n)))
        x0p = pushed.paths[0, 0, :]
        other = euler_maruyama(transformed, x0p, t0, t1, dt, n_paths,
                               seed + 1, params=params)
        return compare_ensembles(pushed, other, significance=significance,
                                 use_ks=False,
                                 extra_moment_tol=5 * float(epsilon) ** 2)
    if isinstance(candidate, DiscreteMap):
        base = euler_maruyama(ito, x0, t0, t1, dt, n_paths, seed, params=params)
        pushed = _push_paths(base, candidate.phi, ctx, params)
        inv = inverse if inverse is not None else _invert_map(candidate)
        if inv is None:
            raise ValueError("map could not be inverted automatically, "
                             "pass inverse= explicitly")
        transformed = apply_discrete(ito, candidate, inverse=inv)
        x0p = pushed.paths[0, 0, :]
        other = euler_maruyama(transformed, x0p, t0, t1, dt, n_paths,
                               seed + 1, params=params)
        return compare_ensembles(pushed, other, significance=significance, use_ks=True)
    raise TypeError("candidate must be a VectorField or a DiscreteMap")


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
