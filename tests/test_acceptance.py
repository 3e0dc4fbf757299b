"""End-to-end acceptance gate. Each test covers one acceptance criterion and
prints a single PASS/FAIL line; the assertions enforce exact verdicts and
the stated runtime budgets."""
import time

import numpy as np
import pytest
import sympy as sp

from stosym.kernel import Context, Verdict, is_zero, normalize, zero_verdict
from stosym.model import (DiscreteMap, ItoSystem, VectorField,
                          lie_bracket, same_fp, transform_ito_first_order)
from stosym.detgen import detsys_discrete, detsys_fp, detsys_projectable
from stosym.verify import (FpClassification, check, check_fp,
                           check_normalization_preserving, extend_to_fp)
from stosym.solve import (Ansatz, commutator_closure, default_time_basis,
                          membership_coordinates, solve_ansatz)
from stosym.kpz import (KpzChain, inversion_matrix, kpz_check_discrete,
                        kpz_detsys_continuous, site_shift_matrix)
from stosym.mcsim import compare_ensembles, euler_maruyama, validate_symmetry_mc
from stosym.dsl import load_candidate
from conftest import FIXTURES, lambda_gamma, random_expression, seeded_rng


def _report(number, label, elapsed=None):
    suffix = f" ({elapsed:.2f}s)" if elapsed is not None else ""
    print(f"PASS criterion {number}: {label}{suffix}")


def _cand(systems, system, name):
    return load_candidate(FIXTURES / name, systems[system])


def _strip(vf):
    return VectorField(context=vf.context, tau=vf.tau, xi=vf.xi)


def test_criterion_1_heat(systems):
    start = time.perf_counter()
    heat = systems["heat.sde"]
    cands = {f"v{i}": _cand(systems, "heat.sde", f"heat_v{i}.cand")
             for i in range(1, 7)}
    for name in ("v1", "v2", "v5"):
        assert check(detsys_projectable(heat, _strip(cands[name]))).is_symmetry
    for name in ("v4", "v6"):
        assert not check(detsys_projectable(heat, _strip(cands[name]))).is_symmetry
    # v3 acts only on the density; as a pathwise candidate it is empty
    assert cands["v3"].xi == (0,) and cands["v3"].tau == 0
    for name, vf in cands.items():
        ext = vf if vf.beta is not None else extend_to_fp(vf)
        assert check(detsys_fp(heat, ext)).is_symmetry, name
        preserving = check_normalization_preserving(ext)
        assert preserving == (name in ("v1", "v2", "v5")), name
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report(1, "heat system pathwise/FP verdicts and normalization", elapsed)


def test_criterion_2_kramers(systems):
    start = time.perf_counter()
    kramers = systems["kramers.sde"]
    cands = {f"v{i}": _cand(systems, "kramers.sde", f"kramers_v{i}.cand")
             for i in range(1, 7)}
    for name in ("v1", "v2", "v3"):
        assert check(detsys_projectable(kramers, _strip(cands[name]))).is_symmetry
    for name in ("v5", "v6"):
        assert not check(detsys_projectable(kramers, _strip(cands[name]))).is_symmetry
    assert cands["v4"].xi == (0, 0) and cands["v4"].tau == 0
    for name, vf in cands.items():
        ext = vf if vf.beta is not None else extend_to_fp(vf)
        assert check(detsys_fp(kramers, ext)).is_symmetry, name
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report(2, "damped-velocity system pathwise/FP verdicts", elapsed)


def test_criterion_3_rotating(systems):
    rot = systems["rotating.sde"]
    ctx = rot.context
    dt_field = extend_to_fp(VectorField(context=ctx, tau=1))
    assert (check_fp(rot, dt_field).classification
            is FpClassification.STATISTICAL_EQUIVALENCE)
    gam = sp.Matrix(lambda_gamma(rot, dt_field)[1])
    assert any(zero_verdict(e) is Verdict.NONZERO for e in gam)
    sig = rot.sigma_matrix()
    mixed = sig * gam.T + gam * sig.T
    assert all(normalize(e) == 0 for e in mixed)
    bctx = ctx.with_params({"b": None})
    b = bctx.symbol("b")
    x, y = bctx.spatial
    ws = VectorField(context=bctx, tau=0, xi=(b * y, -b * x),
                     Bmat=((0, b), (-b, 0)))
    assert check(detsys_projectable(rot, ws)).is_symmetry
    _report(3, "rotating-noise classification and rotation W-symmetry")


def test_criterion_4_langevin(systems):
    start = time.perf_counter()
    lan = systems["langevin4.sde"]
    ctx = lan.context
    t = ctx.t
    n = 4
    v1 = VectorField(context=ctx, tau=1)
    v2 = VectorField(context=ctx, tau=sp.exp(-2 * t),
                     xi=tuple(-sp.exp(-2 * t) * xi for xi in ctx.spatial))
    assert check(detsys_projectable(lan, v1)).is_symmetry
    assert check(detsys_projectable(lan, v2)).is_symmetry
    for i in range(n):
        xi = [sp.Integer(0)] * n
        xi[i] = sp.exp(-t)
        vq = VectorField(context=ctx, tau=0, xi=tuple(xi))
        assert check(detsys_projectable(lan, vq)).is_symmetry
    # simultaneous rotation of x and w with amplitude-matched coordinates,
    # for fully symbolic positive noise strengths
    s = [ctx.symbol(f"s{i + 1}") for i in range(n)]
    bctx = ctx.with_params({f"b{p}{q}": None
                            for p in range(1, n + 1) for q in range(p + 1, n + 1)})
    B = sp.zeros(n, n)
    for p in range(n):
        for q in range(p + 1, n):
            bpq = bctx.symbol(f"b{p + 1}{q + 1}")
            B[p, q] = bpq
            B[q, p] = -bpq
    xi = tuple(sum(sp.sqrt(s[i]) / sp.sqrt(s[k]) * B[i, k] * bctx.spatial[k]
                   for k in range(n)) for i in range(n))
    ws = VectorField(context=bctx, tau=0, xi=xi,
                     Bmat=tuple(tuple(B[p, q] for q in range(n)) for p in range(n)))
    assert check(detsys_projectable(lan, ws)).is_symmetry
    # the un-rooted ratio corresponds to amplitude-convention coefficients
    amp = systems["langevin2_amp.sde"]
    assert check(detsys_projectable(
        amp, _cand(systems, "langevin2_amp.sde", "langevin_wrot_ratio.cand"))
    ).is_symmetry
    x = ctx.spatial
    reflect = DiscreteMap(context=ctx, phi=tuple(-xi for xi in x),
                          R=tuple(tuple(-sp.Integer(p == q) for q in range(n))
                                  for p in range(n)))
    assert check(detsys_discrete(lan, reflect)).is_symmetry
    elapsed = time.perf_counter() - start
    assert elapsed < 2.0
    _report(4, "four-oscillator generators, symbolic W-rotation, reflection",
            elapsed)


def test_criterion_5_nonlinear(systems):
    nl = systems["norm_coupled2.sde"]
    ctx = nl.context
    t = ctx.t
    ansatz = Ansatz(degree=2, time_basis=default_time_basis(t, (2,)), t=t)
    basis = solve_ansatz(nl, ansatz)
    assert basis.dimension == 1
    g = basis.generators[0]
    assert normalize(g.tau - 1) == 0 and all(e == 0 for e in g.xi)
    bctx = ctx.with_params({"b": None})
    b = bctx.symbol("b")
    x1, x2 = bctx.spatial
    ws = VectorField(context=bctx, tau=0, xi=(b * x2, -b * x1),
                     Bmat=((0, b), (-b, 0)))
    assert check(detsys_projectable(nl, ws)).is_symmetry
    # the rotation commutes with the drift because x^T B x vanishes
    bracket = lie_bracket(nl.f, ws.xi, bctx.spatial)
    assert all(is_zero(e) for e in bracket)
    _report(5, "nonlinear system: 1-dimensional ansatz basis and W-rotation")


def test_criterion_6_heat_solver(systems):
    heat = systems["heat.sde"]
    ctx = heat.context
    x, t = ctx.spatial[0], ctx.t
    ansatz = Ansatz(degree=1, time_basis=(sp.Integer(1), t, t**2), t=t)
    basis = solve_ansatz(heat, ansatz)
    assert basis.dimension == 3
    for vf in (VectorField(context=ctx, tau=1),
               VectorField(context=ctx, tau=0, xi=(sp.Integer(1),)),
               VectorField(context=ctx, tau=2 * t, xi=(x,))):
        assert membership_coordinates(basis, vf) is not None
    assert commutator_closure(basis).closed
    _report(6, "heat solver: complete 3-dimensional closed algebra")


def test_criterion_7_kpz():
    start = time.perf_counter()
    for n in range(3, 13):
        chain = KpzChain(n)
        assert check(kpz_detsys_continuous(
            chain, 1, sp.zeros(n, n), [0] * n)).is_symmetry
        assert check(kpz_detsys_continuous(
            chain, 0, sp.zeros(n, n), [1] * n)).is_symmetry
        assert kpz_check_discrete(chain, site_shift_matrix(n)).is_symmetry
        assert kpz_check_discrete(chain, inversion_matrix(n, 1)).is_symmetry
        assert not kpz_check_discrete(chain, -sp.eye(n)).is_symmetry
        assert kpz_check_discrete(KpzChain(n, beta=0), -sp.eye(n)).is_symmetry
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    _report(7, "growth chain N=3..12 with symbolic coefficients", elapsed)


def test_criterion_8_property_suites(systems, manifest):
    # FP round trip on every pathwise symmetry fixture
    for entry in manifest["checks"]:
        if entry["check"] != "ito" or entry["expected"] != "symmetry":
            continue
        ito = systems[entry["system"]]
        vf = _strip(_cand(systems, entry["system"], entry["candidate"]))
        ext = extend_to_fp(vf)
        assert check(detsys_fp(ito, ext)).is_symmetry
        assert check_fp(ito, ext).classification is FpClassification.ITO_SYMMETRY
    # pathwise residuals equal the first-order coefficient change
    kramers = systems["kramers.sde"]
    rng = seeded_rng(20)
    for _ in range(5):
        xi = tuple(normalize(random_expression(rng, kramers.context, depth=2))
                   for _ in range(2))
        vf = VectorField(context=kramers.context, tau=0, xi=xi)
        delta_f, delta_sigma = transform_ito_first_order(kramers, xi)
        lam, gam = lambda_gamma(kramers, vf)
        for i in range(2):
            assert normalize(lam[i] + delta_f[i]) == 0
            assert normalize(gam[i][0] - delta_sigma[i][0]) == 0
        # the W system with a zero mixer is the plain system
        ws = VectorField(context=kramers.context, tau=0, xi=xi, Bmat=())
        a = detsys_projectable(kramers, ws)
        b = detsys_projectable(kramers, vf)
        for (_, ea), (_, eb) in zip(a.equations, b.equations):
            assert normalize(ea - eb) == 0
    # kernel invariants on 200 random expressions
    ctx = Context(spatial=("x", "y"), params={"k": "positive"}, noises=("w",))
    x, y = ctx.spatial
    rng = seeded_rng(21)
    for _ in range(200):
        e = random_expression(rng, ctx)
        ne = normalize(e)
        assert normalize(ne) == ne
        assert is_zero(e - e)
        mixed = normalize(sp.diff(normalize(sp.diff(e, x)), y))
        other = normalize(sp.diff(normalize(sp.diff(e, y)), x))
        assert normalize(mixed - other) == 0
        f = random_expression(rng, ctx, depth=1)
        assert normalize(sp.diff(2 * e + f, x) - 2 * normalize(sp.diff(e, x))
                         - normalize(sp.diff(f, x))) == 0
    _report(8, "property suites: round trips, reductions, kernel invariants")


def test_criterion_9_monte_carlo(systems):
    start = time.perf_counter()
    n_paths, dt, significance = 10_000, 1e-3, 0.01
    ctx1 = Context(spatial=("x",), noises=("w",))
    wiener = ItoSystem(context=ctx1, f=(sp.Integer(0),),
                       sigma=((sp.Integer(1),),))
    # Wiener variance grows linearly in time
    ens = euler_maruyama(wiener, [0.0], 0.0, 1.0, dt, n_paths, seed=101)
    for ti, t in enumerate(ens.times):
        if t == 0:
            continue
        v = ens.paths[:, ti, 0].var(ddof=1)
        assert abs(v - t) < 5 * t * np.sqrt(2.0 / n_paths)
    # deterministic per seed
    again = euler_maruyama(wiener, [0.0], 0.0, 1.0, dt, n_paths, seed=101)
    assert np.array_equal(ens.paths, again.paths)
    # mean-reverting equilibrium variance equals the noise strength
    lan = systems["langevin2.sde"]
    eq = euler_maruyama(lan, [0.0, 0.0], 0.0, 4.0, dt, n_paths, seed=102,
                        params={"s1": 0.7, "s2": 0.3})
    assert abs(eq.paths[:, -1, 0].var(ddof=1) - 0.7) < 0.06
    assert abs(eq.paths[:, -1, 1].var(ddof=1) - 0.3) < 0.03
    # rotating noise matrix is marginally indistinguishable from identity
    rot = systems["rotating.sde"]
    ident = ItoSystem(context=rot.context,
                      f=(sp.Integer(0), sp.Integer(0)),
                      sigma=((sp.Integer(1), sp.Integer(0)),
                             (sp.Integer(0), sp.Integer(1))))
    assert same_fp(rot.sigma, ident.sigma)
    a = euler_maruyama(rot, [0.0, 0.0], 0.0, 1.0, dt, n_paths, seed=103)
    b = euler_maruyama(ident, [0.0, 0.0], 0.0, 1.0, dt, n_paths, seed=104)
    assert compare_ensembles(a, b, significance=significance).verdict
    # translation equivariance: shifted start equals shifted ensemble
    c = euler_maruyama(wiener, [0.0], 0.0, 1.0, dt, n_paths, seed=105)
    d = euler_maruyama(wiener, [0.8], 0.0, 1.0, dt, n_paths, seed=106)
    shifted = type(c)(times=c.times, paths=c.paths + 0.8, seed=c.seed,
                      dt=c.dt)
    assert compare_ensembles(shifted, d, significance=significance).verdict
    # reflection of the oscillators validated pathwise in distribution
    x1, x2 = lan.context.spatial
    reflect = DiscreteMap(context=lan.context, phi=(-x1, -x2),
                          R=((-1, 0), (0, -1)))
    rep = validate_symmetry_mc(lan, reflect, x0=[0.5, -0.2], dt=dt,
                               n_paths=n_paths, seed=107,
                               significance=significance,
                               params={"s1": 0.7, "s2": 0.3})
    assert rep.verdict
    # negative control: doubled noise is rejected overwhelmingly
    double = ItoSystem(context=ctx1, f=(sp.Integer(0),),
                       sigma=((sp.Integer(2),),))
    e1 = euler_maruyama(wiener, [0.0], 0.0, 1.0, dt, n_paths, seed=108)
    e2 = euler_maruyama(double, [0.0], 0.0, 1.0, dt, n_paths, seed=109)
    control = compare_ensembles(e1, e2, significance=significance)
    assert not control.verdict
    assert min(e["ks_pvalue"] for e in control.entries) < 1e-6
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _report(9, "Monte-Carlo suite at 10^4 paths", elapsed)
