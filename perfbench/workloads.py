"""The four benchmark workloads and their correctness oracle.

A workload is a list of ops. One pass runs every op once, in list order;
the benchmark repeats passes until its time is up. Each op has a timed part
(`run`, the calls into stosym) and an untimed part (`answer`, which turns
the result into something comparable with `expected`). An op fails when
`run` or `answer` raises or when the answer differs from the expected one;
an INCONCLUSIVE verdict never equals an expected answer, so it always
fails.

Expected answers come only from sources independent of the code under
test: the fixture manifest, the solver dimensions pinned by the test suite,
the known answers for the growth chain, agreement between the general
engine and the chain-specific path, exact moments of the Euler-Maruyama
recursion, a plain NumPy re-implementation of Euler-Maruyama for the chain,
and the Monte-Carlo positive and negative controls.

Calls go through module attributes (`verify.check`, not a local name) so
that the tracer, which rebinds module attributes, sees them. Each builder
imports only the modules its workload uses, so that set-up time shows what
that workload loads.
"""
from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import sympy as sp

SYMBOLIC = {"manifest", "solve", "chain"}


@dataclass
class Op:
    name: str
    group: str          # ops of one group share a named metric
    run: Callable       # run(state) -> result; timed
    answer: Callable    # answer(result, state) -> comparable; untimed
    expected: object
    path_steps: int = 0


@dataclass
class Workload:
    name: str
    ops: list
    symbolic: bool      # passes start with sympy.core.cache.clear_cache()


def build(name, seed, root, smoke=False):
    """Workload `name` with inputs drawn from `seed`. `smoke` shrinks every
    size so that a run takes seconds; it exists for the benchmark's own
    tests and is never a measured configuration."""
    builders = {"manifest": _manifest, "solve": _solve, "chain": _chain,
                "mc": _mc}
    fixtures = Path(root) / "src" / "stosym" / "fixtures"
    return Workload(name=name, ops=builders[name](seed, fixtures, smoke),
                    symbolic=name in SYMBOLIC)


def flip(expected):
    """An answer that can never be right where `expected` is; used to prove
    that the oracle catches a wrong answer."""
    if isinstance(expected, bool):
        return not expected
    if expected == "symmetry":
        return "not_symmetry"
    if expected == "not_symmetry":
        return "symmetry"
    return ("flipped", expected)


def verdict_of(report):
    """Verdict string of a VerificationReport, or of a boolean report such
    as the chain's discrete check."""
    overall = getattr(report, "overall", None)
    if overall is not None:
        return overall.value
    return "symmetry" if report.is_symmetry else "not_symmetry"


# --- manifest ----------------------------------------------------------------
# Why: small systems (n <= 4) and many short verdicts, where parsing, model
# construction, `normalize` and the zero test dominate. `solve`, `kpz` and
# `mcsim` do no work here.
#
# Every entry of the fixture manifest is one op, in an order shuffled by the
# seed. Most entries go through the CLI `check` command in process, with
# `--fp --json` for the fp, normalization and classification entries. The
# `ito` entries whose candidate carries a beta component go through the API
# with beta stripped, as the acceptance tests do, because the CLI would run
# the Fokker-Planck check for them.

_CLI_VERDICTS = {0: "symmetry", 1: "not_symmetry"}
_FP_KINDS = {"fp", "normalization", "classification"}


def _manifest(seed, fixtures, smoke):
    from click.testing import CliRunner
    entries = json.loads((fixtures / "manifest.json").read_text())["checks"]
    runner = CliRunner()
    ops = []
    for i, entry in enumerate(entries):
        sys_path = str(fixtures / entry["system"])
        cand_path = str(fixtures / entry["candidate"])
        kind = entry["check"]
        name = f"{i:02d}:{entry['system']}:{entry['candidate']}:{kind}"
        if kind == "ito" and _declares_beta(fixtures / entry["candidate"]):
            ops.append(Op(name, "verdict", _api_stripped(sys_path, cand_path),
                          lambda r, s: verdict_of(r), entry["expected"]))
            continue
        args = ["check", sys_path, cand_path]
        if kind in _FP_KINDS:
            args += ["--fp", "--json"]
        ops.append(Op(name, "verdict", _cli(runner, args),
                      _cli_answer(kind), entry["expected"]))
    random.Random(seed).shuffle(ops)
    return ops


def _declares_beta(cand_file):
    for line in cand_file.read_text().splitlines():
        words = line.split("#", 1)[0].split()
        if words and words[0] == "beta":
            return True
    return False


def _api_stripped(sys_path, cand_path):
    from stosym import detgen, dsl, model, verify

    def run(state):
        ito = dsl.load_system(sys_path)
        cand = dsl.load_candidate(cand_path, ito)
        vf = model.VectorField(context=cand.context, tau=cand.tau, xi=cand.xi)
        return verify.check(detgen.detsys_projectable(ito, vf))
    return run


def _cli(runner, args):
    import stosym.cli

    def run(state):
        return runner.invoke(stosym.cli.main, args)
    return run


def _cli_answer(kind):
    """Answer of one CLI `check` call. A traceback, or an exit code outside
    0 (symmetry), 1 (not a symmetry) and 3 (inconclusive), is an error."""
    def answer(result, state):
        exc = result.exception
        if exc is not None and not isinstance(exc, SystemExit):
            raise exc
        code = result.exit_code
        if code == 3:
            return "inconclusive"
        if code not in _CLI_VERDICTS:
            raise RuntimeError(f"exit code {code} outside the CLI contract")
        verdict = _CLI_VERDICTS[code]
        if kind not in _FP_KINDS:
            printed = result.stdout.split()
            if not printed or printed[0] != verdict:
                raise RuntimeError(f"printed {result.stdout!r} with exit {code}")
            return verdict
        data = json.loads(result.stdout)
        if data["overall"] != verdict:
            raise RuntimeError(f"JSON says {data['overall']} with exit {code}")
        if kind == "fp":
            return verdict
        if kind == "normalization":
            return data["normalization_preserving"]
        return data.get("classification")
    return answer


# --- solve -------------------------------------------------------------------
# Why: the candidate has symbolic coefficients, so coefficient matching,
# nullspace/rref and re-verification do most of the work. The other
# workloads only check concrete candidates.
#
# Three `solve_ansatz` calls per pass, with the dimensions the tests pin:
# heat at degree 1 over {1, t, t^2} (3, and the algebra is closed and holds
# the three known generators), norm_coupled2 at degree 2 with rate 2 and W
# with B (2), langevin2 at degree 1 with rates 1 and 2 and W with B (5).
# The heat op's timed part includes the closure and membership checks.

def _solve(seed, fixtures, smoke):
    from stosym import dsl
    heat = dsl.load_system(fixtures / "heat.sde")
    ops = [Op("heat.deg1", "solve", _solve_heat(heat), lambda r, s: r,
              (3, True, True))]
    if smoke:
        return ops
    nl = dsl.load_system(fixtures / "norm_coupled2.sde")
    lan = dsl.load_system(fixtures / "langevin2.sde")
    ops.append(Op("norm_coupled2.deg2.w", "solve", _solve_w(nl, 2, (2,)),
                  lambda r, s: r.dimension, 2))
    ops.append(Op("langevin2.deg1.w", "solve", _solve_w(lan, 1, (1, 2)),
                  lambda r, s: r.dimension, 5))
    return ops


def _solve_heat(heat):
    from stosym import model, solve
    ctx = heat.context
    x, t = ctx.spatial[0], ctx.t

    def run(state):
        ansatz = solve.Ansatz(degree=1, time_basis=(sp.Integer(1), t, t**2), t=t)
        basis = solve.solve_ansatz(heat, ansatz)
        known = (model.VectorField(context=ctx, tau=1),
                 model.VectorField(context=ctx, tau=0, xi=(sp.Integer(1),)),
                 model.VectorField(context=ctx, tau=2 * t, xi=(x,)))
        members = all(solve.membership_coordinates(basis, vf) is not None
                      for vf in known)
        return basis.dimension, solve.commutator_closure(basis).closed, members
    return run


def _solve_w(ito, degree, rates):
    from stosym import solve
    t = ito.context.t

    def run(state):
        ansatz = solve.Ansatz(degree=degree,
                              time_basis=solve.default_time_basis(t, rates),
                              t=t, include_B=True)
        return solve.solve_ansatz(ito, ansatz, which="w")
    return run


# --- chain -------------------------------------------------------------------
# Why: equation counts are O(N^4) and a verdict has thousands of trivial
# residuals, which puts `detgen` differentiation, `kpz` tensors and the zero
# test on the critical path. It is also the only workload where the
# special-case path and the general path answer the same question.
#
# Per size N, with symbolic a and b: the chain-specific time shift
# (kpz_detsys_continuous + check), site shift, inversion about a seeded
# site and height inversion, then the general engine on kpz_ito for the time
# shift (detsys_projectable) and the site shift (detsys_discrete), whose
# verdicts must also agree with the chain-specific ones.
#
# Left out: N = 24 and N = 32. With N = 24 one pass takes 11-14 s, and at
# N = 32 one kpz_detsys_continuous build alone takes about 10 s; a 16 s run
# must repeat every op several times, so that each op's mean latency
# rests on several samples.

CHAIN_SIZES = (8, 12, 16)
SMOKE_CHAIN_SIZES = (4,)


def _chain(seed, fixtures, smoke):
    from stosym import kpz
    rng = random.Random(seed)
    ops = []
    for n in (SMOKE_CHAIN_SIZES if smoke else CHAIN_SIZES):
        site = rng.randint(1, n)
        special = {
            "time_shift": (_kpz_time_shift(n), "symmetry"),
            "site_shift": (_kpz_discrete(n, kpz.site_shift_matrix),
                           "symmetry"),
            f"inversion@{site}": (
                _kpz_discrete(n, kpz.inversion_matrix, site), "symmetry"),
            "h_inversion": (_kpz_discrete(n, _height_inversion),
                            "not_symmetry"),
        }
        for label, (run, expected) in special.items():
            ops.append(Op(f"N{n}.{label}", "verdict", run,
                          lambda r, s: verdict_of(r), expected))
        ops.append(Op(f"N{n}.general.time_shift", "verdict",
                      _general_time_shift(n),
                      _agrees_with(f"N{n}.time_shift"), "symmetry"))
        ops.append(Op(f"N{n}.general.site_shift", "verdict",
                      _general_site_shift(n),
                      _agrees_with(f"N{n}.site_shift"), "symmetry"))
    return ops


def _kpz_time_shift(n):
    from stosym import kpz, verify

    def run(state):
        chain = kpz.KpzChain(n)
        return verify.check(kpz.kpz_detsys_continuous(
            chain, 1, sp.zeros(n, n), [0] * n))
    return run


def _kpz_discrete(n, matrix, *args):
    from stosym import kpz

    def run(state):
        return kpz.kpz_check_discrete(kpz.KpzChain(n), matrix(n, *args))
    return run


def _height_inversion(n):
    return -sp.eye(n)


def _general_time_shift(n):
    from stosym import detgen, kpz, model, verify

    def run(state):
        ito = kpz.kpz_ito(kpz.KpzChain(n))
        vf = model.VectorField(context=ito.context, tau=1,
                               xi=(sp.Integer(0),) * n)
        return verify.check(detgen.detsys_projectable(ito, vf))
    return run


def _general_site_shift(n):
    from stosym import detgen, kpz, model, verify

    def run(state):
        ito = kpz.kpz_ito(kpz.KpzChain(n))
        F = kpz.site_shift_matrix(n)
        image = F * sp.Matrix(ito.context.spatial)
        dmap = model.DiscreteMap(
            context=ito.context, phi=tuple(image),
            R=tuple(tuple(F[i, j] for j in range(n)) for i in range(n)))
        return verify.check(detgen.detsys_discrete(ito, dmap))
    return run


def _agrees_with(special_name):
    """The general engine's verdict, provided the chain-specific path of the
    same pass gave the same one."""
    def answer(result, state):
        mine = verdict_of(result)
        theirs = state.get(special_name)
        if theirs is None:
            raise RuntimeError(f"{special_name} produced no verdict this pass")
        theirs = verdict_of(theirs)
        if mine != theirs:
            return f"disagrees: general {mine}, chain-specific {theirs}"
        return mine
    return answer


# --- mc ----------------------------------------------------------------------
# Why: no symbolic work after lambdify. The three systems use the EM step
# differently: constant noise with n = 2, state-dependent noise, and constant
# noise with n = 16. A constant-sigma fast path that slows the general path
# will therefore show.
#
# Ops: Euler-Maruyama on langevin2 (s1 = 0.7, s2 = 0.3) and on a 2-D system
# with drift -x and noise linear in x (s = 0.4), both at 10^4 paths x 10^3
# steps; EM on the chain at N = 16 (a = 1, b = 1/10) at 2,000 paths x 200
# steps with dt = 10^-3; compare_ensembles of the langevin2 ensemble against
# an independent one (must pass) and against one with doubled noise (must
# fail); validate_symmetry_mc of langevin_reflect at 10^4 paths (must pass).
# Every seed derives from the workload seed, and every pass reuses them.
#
# Left out: EM on the chain at 10^4 paths x 10^3 steps, which takes minutes
# per call today (about 306 s at N = 32).
#
# The statistical tests run at significance 1e-6, so that a true null
# hypothesis fails about once in a million runs, while the doubled-noise
# control still gives KS p-values far below that.

_MC_SIGNIFICANCE = 1e-6
_Z_TOL = 6.0  # standard errors allowed between a sample moment and its exact value
_LANGEVIN_PARAMS = {"s1": 0.7, "s2": 0.3}
_STATE_NOISE_S = 0.4


@dataclass(frozen=True)
class _McSize:
    paths: int
    steps: int
    chain_paths: int
    chain_steps: int
    chain_sites: int


_MC_FULL = _McSize(paths=10_000, steps=1_000, chain_paths=2_000,
                   chain_steps=200, chain_sites=16)
_MC_SMOKE = _McSize(paths=1_000, steps=100, chain_paths=200,
                    chain_steps=20, chain_sites=4)


def _mc(seed, fixtures, smoke):
    import numpy as np
    from stosym import dsl, kpz, mcsim, model
    size = _MC_SMOKE if smoke else _MC_FULL
    seeds = [seed * 100 + k for k in range(6)]
    lan = dsl.load_system(fixtures / "langevin2.sde")
    reflect = dsl.load_candidate(fixtures / "langevin_reflect.cand", lan)
    doubled = model.ItoSystem(
        context=lan.context, f=lan.f,
        sigma=tuple(tuple(2 * e for e in row) for row in lan.sigma),
        name="langevin2-doubled-noise")
    state_noise = _state_noise_system(_STATE_NOISE_S)
    chain_ito = kpz.kpz_ito(kpz.KpzChain(size.chain_sites, alpha=1,
                                         beta=sp.Rational(1, 10)))
    rng = np.random.default_rng(seed)
    chain_x0 = rng.uniform(-0.5, 0.5, size.chain_sites)
    dt = 1.0 / size.steps
    chain_dt = 1e-3
    lan_x0 = (1.0, -0.5)
    state_x0 = (1.0, 0.5)

    def em(ito, x0, n_paths, steps, step, key, params=None):
        return lambda state: mcsim.euler_maruyama(
            ito, x0, 0.0, steps * step, step, n_paths, key, params=params)

    def compare_with_small(other):
        def run(state):
            return mcsim.compare_ensembles(state["em_small"], other(state),
                                           significance=_MC_SIGNIFICANCE)
        return run

    def validate(state):
        return mcsim.validate_symmetry_mc(
            lan, reflect, x0=[0.5, -0.2], t1=1.0, dt=dt, n_paths=size.paths,
            seed=seeds[5], significance=_MC_SIGNIFICANCE,
            params=_LANGEVIN_PARAMS)

    steps = size.paths * size.steps
    return [
        Op("em_small", "em_small",
           em(lan, lan_x0, size.paths, size.steps, dt, seeds[0],
              _LANGEVIN_PARAMS),
           _ou_moments(lan_x0, dt, size.steps), True, path_steps=steps),
        Op("em_state_noise", "em_state_noise",
           em(state_noise, state_x0, size.paths, size.steps, dt, seeds[1]),
           _state_noise_moments(state_x0, dt, size.steps), True,
           path_steps=steps),
        Op("em_chain", "em_chain",
           em(chain_ito, chain_x0, size.chain_paths, size.chain_steps,
              chain_dt, seeds[2]),
           _chain_reference(chain_x0, chain_dt, size.chain_steps,
                            size.chain_paths, seeds[2]), True,
           path_steps=size.chain_paths * size.chain_steps),
        Op("compare_independent", "compare",
           compare_with_small(em(lan, lan_x0, size.paths, size.steps, dt,
                                 seeds[3], _LANGEVIN_PARAMS)),
           lambda r, s: r.verdict, True),
        Op("compare_doubled_noise", "compare",
           compare_with_small(em(doubled, lan_x0, size.paths, size.steps, dt,
                                 seeds[4], _LANGEVIN_PARAMS)),
           lambda r, s: r.verdict, False),
        Op("validate_reflect", "validate", validate,
           lambda r, s: r.verdict, True),
    ]


def _state_noise_system(s):
    """dx = -x dt + s [[x1, x2], [-x2, x1]] dw: the noise scales and rotates
    with the state."""
    from stosym import kernel, model
    ctx = kernel.Context(spatial=("x1", "x2"), noises=("w1", "w2"))
    x1, x2 = ctx.spatial
    s = sp.nsimplify(s)
    return model.ItoSystem(context=ctx, f=(-x1, -x2),
                           sigma=((s * x1, s * x2), (-s * x2, s * x1)),
                           name="state-noise-2")


def _final(ens):
    return ens.paths[:, -1, :]


def _within(sample, exact, se):
    return abs(sample - exact) <= _Z_TOL * se


def _ou_moments(x0, dt, steps):
    """langevin2 is dx^i = -x^i dt + sqrt(2 s_i) dw^i. Its EM recursion has
    mean x0 (1 - dt)^k and variance v_{k+1} = (1 - dt)^2 v_k + 2 s dt."""
    decay = (1 - dt) ** steps
    ratio = (1 - dt) ** 2
    def answer(ens, state):
        X = _final(ens)
        n = X.shape[0]
        for i, s in enumerate((_LANGEVIN_PARAMS["s1"], _LANGEVIN_PARAMS["s2"])):
            var = 2 * s * dt * (1 - ratio ** steps) / (1 - ratio)
            if not _within(X[:, i].mean(), x0[i] * decay, math.sqrt(var / n)):
                return False
            if not _within(X[:, i].var(ddof=1), var,
                           var * math.sqrt(2 / (n - 1))):
                return False
        return True
    return answer


def _state_noise_moments(x0, dt, steps):
    """For the state-noise system the EM recursion has mean x0 (1 - dt)^k and
    E|x|^2 = |x0|^2 ((1 - dt)^2 + 2 s^2 dt)^k."""
    s = _STATE_NOISE_S
    def answer(ens, state):
        X = _final(ens)
        n = X.shape[0]
        for i in range(2):
            exact = x0[i] * (1 - dt) ** steps
            if not _within(X[:, i].mean(), exact, X[:, i].std(ddof=1) / math.sqrt(n)):
                return False
        sq = (X ** 2).sum(axis=1)
        exact = sum(v * v for v in x0) * ((1 - dt) ** 2 + 2 * s * s * dt) ** steps
        return _within(sq.mean(), exact, sq.std(ddof=1) / math.sqrt(n))
    return answer


def _chain_reference(x0, dt, steps, n_paths, key, a=1.0, b=0.1):
    """The chain's EM paths recomputed with plain NumPy from the same Philox
    stream (one (path, channel) block of normals per step) must match."""
    import numpy as np
    cache = []

    def reference():
        rng = np.random.Generator(np.random.Philox(key=key))
        X = np.tile(np.asarray(x0, dtype=float), (n_paths, 1))
        sqrt_dt = np.sqrt(dt)
        for _ in range(steps):
            dW = rng.standard_normal(X.shape) * sqrt_dt
            right, left = np.roll(X, -1, axis=1), np.roll(X, 1, axis=1)
            X = X + (a * (right - 2 * X + left) + b * (right - left) ** 2) * dt + dW
        return X

    def answer(ens, state):
        if not cache:
            cache.append(reference())
        return bool(np.allclose(_final(ens), cache[0], rtol=1e-9, atol=1e-9))
    return answer
