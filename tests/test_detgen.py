from unittest import mock

import pytest
import sympy as sp
from hypothesis import assume, given, settings, strategies as st

from stosym import model
from stosym.dsl import load_candidate
from stosym.kernel import (Context, Verdict, _generator, normalize, to_dsl,
                           zero_verdict)
from stosym.model import (DiscreteMap, ItoSystem, VectorField,
                          apply_discrete, fokker_planck_of, lie_bracket,
                          transform_ito_first_order)
from stosym.verify import (FpClassification, OverallVerdict, check, check_fp,
                           check_superposition, extend_to_fp)
from stosym.detgen import (_discrete_equations, _lambda_gamma_of,
                           detsys_discrete, detsys_fp, detsys_ode,
                           detsys_projectable)
from stosym.kpz import KpzChain, kpz_ito
from conftest import (FIXTURES, RING_CTX, lambda_gamma, random_expression,
                      random_polynomial_system, seeded_rng)


@pytest.fixture
def kramers(systems):
    return systems["kramers.sde"]


def _random_vf(rng, ctx, with_tau=True):
    xi = tuple(normalize(random_expression(rng, ctx, depth=2))
               for _ in ctx.spatial)
    tau = ctx.t ** rng.randint(0, 2) if with_tau else 0
    return VectorField(context=ctx, tau=tau, xi=xi)


class TestReductionChain:
    def test_w_with_zero_mixer_equals_projectable(self, kramers):
        rng = seeded_rng(10)
        ctx = kramers.context
        for _ in range(5):
            vf = _random_vf(rng, ctx)
            ws = VectorField(context=ctx, tau=vf.tau, xi=vf.xi, Bmat=())
            a = detsys_projectable(kramers, ws)
            b = detsys_projectable(kramers, vf)
            assert (a.name, b.name) == ("ito-w", "ito-projectable")
            assert len(a.equations) == len(b.equations)
            for (_, ea), (_, eb) in zip(a.equations, b.equations):
                assert normalize(ea - eb) == 0

    def test_projectable_with_zero_tau_equals_spatial(self, kramers):
        """At tau = 0 the Lambda residual is -(L xi - xi . grad f) and the
        Gamma residual sigma . grad xi - xi . grad sigma, written out here
        with sympy."""
        rng = seeded_rng(11)
        ctx = kramers.context
        x, t = ctx.spatial, ctx.t
        f, sigma = kramers.f, kramers.sigma
        S = sp.Matrix(sigma) * sp.Matrix(sigma).T / 2
        for _ in range(5):
            vf = _random_vf(rng, ctx, with_tau=False)
            lam, gam = lambda_gamma(kramers, vf)
            for i, xi in enumerate(vf.xi):
                L = (sp.diff(xi, t) + sum(fj * sp.diff(xi, v)
                                          for fj, v in zip(f, x))
                     + sum(S[a, b] * sp.diff(xi, x[a], x[b])
                           for a in range(2) for b in range(2)))
                moved_f = sum(e * sp.diff(f[i], v) for e, v in zip(vf.xi, x))
                assert normalize(lam[i] + L - moved_f) == 0
                for k in range(kramers.m):
                    expected = (sum(sigma[a][k] * sp.diff(xi, x[a])
                                    for a in range(2))
                                - sum(e * sp.diff(sigma[i][k], v)
                                      for e, v in zip(vf.xi, x)))
                    assert normalize(gam[i][k] - expected) == 0


def _random_linear_vf(rng, ctx):
    """xi = Lambda(t) x + alpha(t) with sparse random entries."""
    t = ctx.t

    def coefficient():
        if rng.random() < 0.5:
            return 0
        q = sp.Rational(rng.randint(-3, 3), rng.randint(1, 2))
        return q * t ** rng.randint(0, 1)
    xi = tuple(sum(coefficient() * v for v in ctx.spatial) + coefficient()
               for _ in ctx.spatial)
    return VectorField(context=ctx, tau=0, xi=xi)


class TestFirstOrderEquivalence:
    def test_spatial_residuals_match_transform_coefficients(self, kramers):
        # for tau = 0 the determining residuals are exactly the first-order
        # change of the coefficients under y = x + eps xi; the reference,
        # transform_ito_first_order, does not use the Lambda/Gamma operator
        rng = seeded_rng(12)
        cases = [(kramers, _random_vf(rng, kramers.context, with_tau=False))
                 for _ in range(5)]
        for n in (3, 4, 5):
            chain = kpz_ito(KpzChain(n))
            cases.append((chain, _random_linear_vf(rng, chain.context)))
        for ito, vf in cases:
            delta_f, delta_sigma = transform_ito_first_order(ito, vf.xi)
            lam, gam = lambda_gamma(ito, vf)
            for i in range(ito.n):
                assert normalize(lam[i] + delta_f[i]) == 0
                for k in range(ito.m):
                    assert normalize(gam[i][k] - delta_sigma[i][k]) == 0


class TestOde:
    def test_linear_flow_scaling(self):
        ctx = Context(spatial=("x",), noises=("w",))
        x = ctx.spatial[0]
        vf = VectorField(context=ctx, tau=0, xi=(x,))
        ds = detsys_ode((x,), vf)
        assert all(e == 0 for _, e in ds.equations)

    def test_rejects_beta(self):
        ctx = Context(spatial=("x",), noises=("w",))
        vf = VectorField(context=ctx, tau=0, xi=(ctx.spatial[0],), beta=1)
        with pytest.raises(ValueError):
            detsys_ode((ctx.spatial[0],), vf)

    def test_failing_candidate_leaves_residual(self):
        ctx = Context(spatial=("x",), noises=("w",))
        x = ctx.spatial[0]
        vf = VectorField(context=ctx, tau=0, xi=(x**2,))
        ds = detsys_ode((x,), vf)
        assert any(normalize(e) != 0 for _, e in ds.equations)

    @pytest.mark.parametrize("polynomial", [True, False])
    def test_matches_bracket_form(self, polynomial):
        """ODE[i] = d_t(xi^i - tau f^i) + {f, xi}^i, in the ring and on
        expressions, also without noise channels."""
        ctx = Context(spatial=("x", "y"), params={"a": None})
        (x, y), t, a = ctx.spatial, ctx.t, ctx.symbol("a")
        f = (a * y - x**2, x * t)
        if polynomial:
            vf = VectorField(ctx, tau=t**2, xi=(x * y + t, a * x**2))
        else:
            vf = VectorField(ctx, tau=sp.exp(t), xi=(x * sp.sin(t), y / a))
        bracket = lie_bracket(f, vf.xi, (x, y))
        assert detsys_ode(f, vf).residuals() == tuple(
            normalize(sp.diff(xi - vf.tau * fi, t) + b)
            for xi, fi, b in zip(vf.xi, f, bracket))


@pytest.mark.parametrize("name", ["heat.sde", "kramers.sde", "rotating.sde"])
def test_engine_built_once_per_system(systems, monkeypatch, name):
    """Every builder and apply_discrete read one set of system
    coefficients, in the exact domain (heat, and kramers with its sqrt(2)
    scaled out) and in expression form (rotating's cos and sin)."""
    read, of = [], ItoSystem._of

    def recorded(self, groups):
        out = of(self, groups)
        read.append(out[0])
        return out
    monkeypatch.setattr(ItoSystem, "_of", recorded)
    loaded = systems[name]
    ito = ItoSystem(loaded.context, f=loaded.f, sigma=loaded.sigma)
    ctx, x = ito.context, ito.context.spatial
    vf = VectorField(ctx, tau=ctx.t, xi=tuple(2 * v for v in x))
    dmap = DiscreteMap(ctx, phi=tuple(-v for v in x),
                       R=(-sp.eye(ito.m)).tolist())
    detsys_projectable(ito, vf)
    detsys_projectable(ito, VectorField(ctx, tau=vf.tau, xi=vf.xi, Bmat=()))
    detsys_discrete(ito, dmap)
    apply_discrete(ito, dmap, inverse=tuple(-v for v in x))
    rotating = name == "rotating.sde"
    assert (ito._coefficients is None) == rotating
    assert ("_expr_coefficients" in vars(ito)) == rotating
    one = ito._expr_coefficients if rotating else ito._coefficients
    assert len(read) == 4 and all(c is one for c in read)


@pytest.mark.parametrize("name", ["heat.sde", "kramers.sde", "langevin2.sde"])
def test_fp_coefficients_built_once_per_system(systems, monkeypatch, name):
    """fokker_planck_of, detsys_fp, check_superposition and check_fp read
    one computation of A, B and C from the system's coefficients, and
    fokker_planck_of returns one value."""
    built = []
    prop = model._Coefficients.__dict__["fokker_planck"]
    monkeypatch.setattr(prop, "func", lambda self, derive=prop.func:
                        built.append(self) or derive(self))
    loaded = systems[name]
    ito = ItoSystem(loaded.context, f=loaded.f, sigma=loaded.sigma)
    ctx = ito.context
    vf = extend_to_fp(VectorField(ctx, tau=1, xi=(0,) * ito.n))
    fp = fokker_planck_of(ito)
    detsys_fp(ito, vf)
    check_superposition(ito, 1)
    check_fp(ito, vf)
    assert fokker_planck_of(ito) is fp
    assert built == [ito._coefficients]
    # a candidate holding exp(t) widens the domain once
    wide = extend_to_fp(VectorField(ctx, tau=sp.exp(ctx.t), xi=(0,) * ito.n))
    detsys_fp(ito, wide)
    check_superposition(ito, sp.exp(ctx.t))
    assert built == [ito._coefficients, *ito._domains.values()]
    assert len(built) == 2


def test_kramers_in_the_domain_with_its_radical(kramers):
    """sigma = sqrt(2) k is s k with s = sqrt(2) a generator of the exact
    domain, and S = s^2 k^2 / 2 leaves as k^2: the Ito families of a
    polynomial candidate run in the domain, and so does the Fokker-Planck
    family, with A = -k^2."""
    ctx = kramers.context
    x, y = ctx.spatial
    vf = VectorField(ctx, tau=ctx.t, xi=(x, y), beta=-2 * ctx.t)
    c, _ = kramers._of([(vf.tau, vf.beta), vf.xi])
    assert c is kramers._coefficients is not None
    A, _, _ = c.fokker_planck
    assert c.calc.leave(A[1][1]) == -ctx.symbol("k")**2
    c, _ = kramers._of([(vf.tau,), vf.xi])
    assert c is kramers._coefficients
    ring = c.calc.ring
    s, k = ring(_generator("sqrt(2)", True)), ring(ctx.symbol("k"))
    assert (c.lam, c.sigma, c.S) == (1, [[0], [s * k]],
                                     [(1, 1, c.calc.half * s**2 * k**2)])


def test_labels_cover_all_components(kramers):
    vf = VectorField(context=kramers.context, tau=1,
                     xi=(sp.Integer(0), sp.Integer(0)))
    ds = detsys_projectable(kramers, vf)
    assert ds.labels() == ("Lambda[1]", "Lambda[2]", "Gamma[1][1]", "Gamma[2][1]")


def test_free_unknowns_detected(kramers):
    ctx = kramers.context
    octx = Context(spatial=ctx.spatial_names, params=ctx.param_assumptions,
                   noises=ctx.noise_names, opaque=("h",))
    h = octx.opaque["h"]
    vf = VectorField(context=octx, tau=0, xi=(h(octx.t), sp.Integer(0)))
    ds = detsys_projectable(kramers, vf)
    assert [f.__name__ for f in ds.free_unknowns] == ["h"]


# ---------------------------------------------------------------------------
# the polynomial-ring path against the expression path, called directly

def _rational(rng):
    return sp.Rational(rng.randint(-5, 5), rng.randint(1, 4))


def _takes_ring(ito, groups):
    return ito._of(groups)[0] is ito._coefficients is not None


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.randoms(use_true_random=False))
def test_ring_lambda_gamma_matches_expression_path(rng):
    """A float-free polynomial system and candidate (tau(t), polynomial xi,
    antisymmetric rational B) give the same equations in the ring as on
    the expression path."""
    ito = random_polynomial_system(rng)
    t = RING_CTX.t
    b = _rational(rng)
    ws = VectorField(context=RING_CTX,
                     tau=sum(_rational(rng) * t**p for p in range(3)),
                     xi=tuple(random_expression(rng, RING_CTX, depth=2,
                                                functions=False)
                              for _ in range(2)),
                     Bmat=((0, b), (-b, 0)))
    B = sp.Matrix(ws.Bmat)
    assert _takes_ring(ito, [(ws.tau,), ws.xi, B])
    lam, gam = _lambda_gamma_of(ito._expr_coefficients, ws.tau, ws.xi,
                                B.T.tolist())
    expected = [normalize(e) for e in (*lam, *(e for row in gam for e in row))]
    assert list(detsys_projectable(ito, ws).residuals()) == expected


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.randoms(use_true_random=False))
def test_ring_discrete_matches_expression_path(rng):
    """The same for a discrete map with an affine phi and a
    signed-permutation R."""
    ito = random_polynomial_system(rng)
    x, t = RING_CTX.spatial, RING_CTX.t
    perm = rng.choice([(0, 1), (1, 0)])
    R = tuple(tuple(rng.choice([-1, 1]) if q == perm[p] else 0
                    for q in range(2)) for p in range(2))
    phi = tuple(sum(_rational(rng) * v for v in x)
                + _rational(rng) * t ** rng.randint(0, 2) for _ in range(2))
    dmap = DiscreteMap(context=RING_CTX, phi=phi, R=R)
    assert _takes_ring(ito, [dmap.phi, *dmap.R])
    eqs = _discrete_equations(ito._expr_coefficients, dmap.phi,
                              [[sp.sympify(e) for e in row] for row in dmap.R])
    ds = detsys_discrete(ito, dmap)
    assert ds.labels() == tuple(label for label, _ in eqs)
    assert list(ds.residuals()) == [normalize(e) for _, e in eqs]


def _random_fp_case(rng):
    """A random polynomial system with a nonvanishing diffusion matrix and
    a random polynomial candidate tau(t), xi(x, t), beta(x, t)."""
    ito = random_polynomial_system(rng)
    assume(ito._coefficients.S)
    t = RING_CTX.t

    def poly():
        return random_expression(rng, RING_CTX, depth=2, functions=False)
    vf = VectorField(context=RING_CTX,
                     tau=sum(_rational(rng) * t**p for p in range(3)),
                     xi=(poly(), poly()), beta=poly())
    return ito, vf


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.randoms(use_true_random=False))
def test_ring_fp_matches_expression_path(rng):
    """The Fokker-Planck family of a polynomial system and candidate is the
    same in the ring as on the expression path."""
    ito, vf = _random_fp_case(rng)
    c, _ = ito._of([(vf.tau, vf.beta), vf.xi])
    assert c.calc is not model._EXPRS
    in_ring = detsys_fp(ito, vf)
    with mock.patch.object(model, "_convert", lambda calc, groups: None):
        assert ito._of([])[0].calc is model._EXPRS
        on_exprs = detsys_fp(ito, vf)
    assert in_ring.equations == on_exprs.equations


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.randoms(use_true_random=False))
def test_fp_a_is_symmetrized_gamma(rng):
    """FP-A[i][k] = (1/2)(sigma Gamma^T + Gamma sigma^T)_ik, with Gamma the
    noise family of the Ito system: the Fokker-Planck equation keeps only
    the symmetric part of the change of the noise."""
    ito, vf = _random_fp_case(rng)
    sigma, gam = sp.Matrix(ito.sigma), sp.Matrix(lambda_gamma(ito, vf)[1])
    mixed = (sigma * gam.T + gam * sigma.T) / 2
    fp_a = [e for label, e in detsys_fp(ito, vf).equations
            if label.startswith("FP-A")]
    assert fp_a == [normalize(e) for e in mixed]


class TestFallback:
    """Input outside QQ[params, x, t] keeps the output of the expression
    path, also where the wider exact domain takes it."""

    def test_float_drift_stays_float(self):
        ctx = Context(spatial=("x",), noises=("w",))
        x = ctx.spatial[0]
        ito = ItoSystem(ctx, f=(sp.Float(0.5) * x,), sigma=((1,),))
        assert ito._coefficients is None
        ds = detsys_projectable(ito, VectorField(ctx, tau=1, xi=(x**2,)))
        assert [to_dsl(e) for e in ds.residuals()] == ["-0.5*x^2 - 1.0",
                                                        "2*x"]

    def test_sqrt_noise(self):
        """sqrt(2) that is not a common factor of sigma: a generator of the
        exact domain."""
        ctx = Context(spatial=("x", "y"), noises=("w1", "w2"))
        (x, y), t = ctx.spatial, ctx.t
        ito = ItoSystem(ctx, f=(-x, -y), sigma=((1, 0), (0, sp.sqrt(2))))
        assert ito._coefficients is not None
        ds = detsys_projectable(ito, VectorField(ctx, tau=t, xi=(x, y * t)))
        assert [to_dsl(e) for e in ds.residuals()] == [
            "-x", "-2*y", "1/2", "0", "0", "sqrt(2)*t - sqrt(2)/2"]

    def test_exp_in_tau(self, systems):
        """exp(t) lies in the exact domain widened by E_1 = exp(t), with
        the output of the expression path."""
        ito = systems["heat.sde"]
        x, t = ito.context.spatial[0], ito.context.t
        vf = VectorField(ito.context, tau=sp.exp(t), xi=(x,))
        assert ito._coefficients is not None
        c, _ = ito._of([(vf.tau,), vf.xi])
        assert c is not ito._coefficients and len(c.calc.rates) == 1
        assert [to_dsl(e) for e in detsys_projectable(ito, vf).residuals()] == [
            "0", "-s0*exp(t)/2 + s0"]

    def test_opaque_unknowns(self, systems):
        ito = systems["heat.sde"]
        ctx = ito.context
        octx = Context(spatial=ctx.spatial_names, params=ctx.param_assumptions,
                       noises=ctx.noise_names, opaque=("tau", "xi_x"))
        vf = VectorField(octx, tau=octx.opaque["tau"](octx.t),
                         xi=(octx.opaque["xi_x"](*octx.spatial, octx.t),))
        assert not _takes_ring(ito, [(vf.tau,), vf.xi])
        ds = detsys_projectable(ito, vf)
        assert [to_dsl(e) for e in ds.residuals()] == [
            "-s0^2*Derivative(xi_x(x, t), (x, 2))/2 - Derivative(xi_x(x, t), t)",
            "-s0*Derivative(tau(t), t)/2 + s0*Derivative(xi_x(x, t), x)"]
        assert [f.__name__ for f in ds.free_unknowns] == ["tau", "xi_x"]


# ---------------------------------------------------------------------------
# the exact domain widened by q = sqrt(p) and E_c = exp(c t), and sigma's
# common radical scaled out, against the expression path

def _exp_term(rng, ctx, poly):
    """A nonzero rational multiple of exp(c t), c in {1, -1, 2, k}, times
    1 plus a random polynomial in x, t and the parameters when `poly`."""
    k, t = ctx.params["k"], ctx.t
    p = (random_expression(rng, ctx, depth=1, functions=False)
         if poly else 0)
    return (sp.Rational(rng.choice([-3, -1, 1, 2]), rng.randint(1, 4))
            * sp.exp(rng.choice([1, -1, 2, k]) * t) * (1 + p))


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(st.randoms(use_true_random=False))
def test_wider_domain_matches_expression_path(rng):
    """A polynomial system with sigma scaled by sqrt(2), sqrt(k) or both,
    and candidates holding exp(c t): the projectable, W and Fokker-Planck
    equations are those of the same system built while the converter
    refuses everything."""
    k = RING_CTX.params["k"]
    scale = rng.choice([sp.sqrt(2), sp.sqrt(k), sp.sqrt(2) * sp.sqrt(k)])
    drawn = random_polynomial_system(rng)
    ito = ItoSystem(RING_CTX, f=drawn.f, sigma=tuple(
        tuple(scale * e for e in row) for row in drawn.sigma))
    assume(ito._coefficients is not None and ito._coefficients.S)
    with mock.patch.object(model, "_convert", lambda calc, groups: None):
        on_exprs = ItoSystem(RING_CTX, f=ito.f, sigma=ito.sigma)
    assert on_exprs._coefficients is None
    t, b = RING_CTX.t, _rational(rng)
    tau = _rational(rng) + _exp_term(rng, RING_CTX, False)
    xi = tuple(random_expression(rng, RING_CTX, depth=1, functions=False)
               + _exp_term(rng, RING_CTX, True) for _ in range(2))
    beta = _exp_term(rng, RING_CTX, True) + t
    vf = VectorField(RING_CTX, tau=tau, xi=xi)
    ws = VectorField(RING_CTX, tau=tau, xi=xi, Bmat=((0, b), (-b, 0)))
    fp = VectorField(RING_CTX, tau=tau, xi=xi, beta=beta)
    c, _ = ito._of([(tau,), xi])
    assert c.calc is not model._EXPRS and c.calc.rates
    for build, candidate in ((detsys_projectable, vf),
                             (detsys_projectable, ws), (detsys_fp, fp)):
        assert (build(ito, candidate).equations
                == build(on_exprs, candidate).equations)


def _nonzero_rational(rng):
    return sp.Rational(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 4))


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(st.randoms(use_true_random=False))
def test_wider_domain_against_first_order_transform(rng):
    """An oracle outside the engine: at tau = 0, Lambda = -delta_f and
    Gamma = delta_sigma of `transform_ito_first_order`, which differentiates
    expressions with sympy. Each xi entry holds r exp(c t) and s sqrt(k) m,
    m a monomial, so the system's coefficients are converted into a domain
    widened by E_c and q = sqrt(k)."""
    ito = random_polynomial_system(rng)
    (x, y), t, k = RING_CTX.spatial, RING_CTX.t, RING_CTX.params["k"]

    def entry():
        m = x**rng.randint(0, 2) * y**rng.randint(0, 2) * t**rng.randint(0, 1)
        return (random_expression(rng, RING_CTX, depth=2, functions=False)
                + _nonzero_rational(rng) * sp.exp(_nonzero_rational(rng) * t)
                + _nonzero_rational(rng) * sp.sqrt(k) * m)
    vf = VectorField(RING_CTX, tau=0, xi=(entry(), entry()))
    lam, gam = lambda_gamma(ito, vf)
    (wide,) = ito._domains.values()
    assert wide.calc.rates and wide.calc.key[3] == (k,)
    delta_f, delta_sigma = transform_ito_first_order(ito, vf.xi)
    residuals = [a + b for a, b in zip(lam, delta_f)]
    residuals += [a - b for row, drow in zip(gam, delta_sigma)
                  for a, b in zip(row, drow)]
    assert all(zero_verdict(e) is Verdict.ZERO for e in residuals)


def test_nonzero_ring_element_that_vanishes_is_zero():
    """exp(t) exp(t) meets exp(2 t): for dx = x exp(t) dt + dw, tau = exp(t)
    and xi = x exp(2 t), the Lambda residual is 2 x (E_2 - E_1^2) in the
    ring, nonzero, leaves it, and is decided and printed as 0."""
    ctx = Context(spatial=("x",), noises=("w",))
    x, t = ctx.spatial[0], ctx.t
    ito = ItoSystem(ctx, f=(x * sp.exp(t),), sigma=((1,),))
    vf = VectorField(ctx, tau=sp.exp(t), xi=(x * sp.exp(2 * t),))
    c, ((tau,), xi) = ito._of([(vf.tau,), vf.xi])
    assert len(c.calc.rates) == 2
    lam, _ = _lambda_gamma_of(c, tau, xi, [])
    assert lam[0] != 0
    ds = detsys_projectable(ito, vf)
    report = check(ds)
    assert ds.equations[0] == ("Lambda[1]", 0)
    assert report.per_equation[0][1] is Verdict.ZERO
    assert report.to_dict()["equations"][0]["residual"] == "0"


def test_parameter_meets_its_root_is_zero():
    """sigma = sqrt(2 k) is s q with s = sqrt(2) and q = sqrt(k), so
    S = s^2 q^2 / 2 = q^2; the candidate's k enters as q^2 too, and the
    Lambda residual -(S d2 xi + d_t xi) of xi = x^2 - 2 k t is 0."""
    ctx = Context(spatial=("x",), params={"k": "positive"}, noises=("w",))
    x, t, k = ctx.spatial[0], ctx.t, ctx.params["k"]
    ito = ItoSystem(ctx, f=(0,), sigma=((sp.sqrt(2 * k),),))
    c = ito._coefficients
    assert c.sigma == [[c.calc.ring(_generator("sqrt(2)", True)
                                    * _generator("q_k", True))]]
    ds = detsys_projectable(ito, VectorField(ctx, xi=(x**2 - 2 * k * t,)))
    assert [to_dsl(e) for e in ds.residuals()] == ["0", "2*sqrt(2)*sqrt(k)*x"]
    assert [v for _, v, _ in check(ds).per_equation] == [Verdict.ZERO,
                                                         Verdict.NONZERO]


# values of Gamma, Lambda, the Fokker-Planck check, check_superposition and
# apply_discrete on kramers (sigma = sqrt(2) k) and langevin2 (sigma =
# sqrt(2) diag(sqrt(s1), sqrt(s2))), from the expression path that these
# systems took before the common radical was scaled out
_KRAMERS_CANDIDATES = {
    "tau=t^2, xi=(x y, t y^2)": (
        lambda ctx, x, y, t, k: VectorField(ctx, tau=t**2,
                                       xi=(x * y, t * y**2)),
        [["sqrt(2)*k*x"], ["2*sqrt(2)*k*t*y - sqrt(2)*k*t"]],
        ["k**2*x*y + t*y**2 + 2*t*y - y**2",
         "k**2*t*y**2 - 2*k**2*t*y - 2*k**2*t - y**2"]),
    "tau=exp(-t), xi=(exp(-k^2 t), y)": (
        lambda ctx, x, y, t, k: VectorField(ctx, tau=sp.exp(-t),
                                       xi=(sp.exp(-k**2 * t), y)),
        [["0"], ["sqrt(2)*k + sqrt(2)*k*exp(-t)/2"]],
        ["k**2*exp(-k**2*t) + y - y*exp(-t)", "k**2*y*exp(-t)"]),
}
_LANGEVIN_CANDIDATES = {
    "tau=t, xi=(x1, x2 t)": (
        lambda ctx, x1, x2, t: VectorField(ctx, tau=t, xi=(x1, x2 * t)),
        [["sqrt(2)*sqrt(s1)/2", "0"],
         ["0", "sqrt(2)*sqrt(s2)*t - sqrt(2)*sqrt(s2)/2"]],
        ["-x1", "-2*x2"]),
    "W xi=(x2, -x1), B12=1": (
        lambda ctx, x1, x2, t: VectorField(ctx, xi=(x2, -x1),
                                           Bmat=((0, 1), (-1, 0))),
        [["0", "-sqrt(2)*sqrt(s1) + sqrt(2)*sqrt(s2)"],
         ["-sqrt(2)*sqrt(s1) + sqrt(2)*sqrt(s2)", "0"]],
        ["0", "0"]),
    "tau=exp(-2t), xi=(x1 exp(t), x2)": (
        lambda ctx, x1, x2, t: VectorField(ctx, tau=sp.exp(-2 * t),
                                      xi=(x1 * sp.exp(t), x2)),
        [["sqrt(2)*sqrt(s1)*exp(t) + sqrt(2)*sqrt(s1)*exp(-2*t)", "0"],
         ["0", "sqrt(2)*sqrt(s2) + sqrt(2)*sqrt(s2)*exp(-2*t)"]],
        ["-x1*exp(t) + 2*x1*exp(-2*t)", "2*x2*exp(-2*t)"]),
}

_SQRT2 = _generator("sqrt(2)", True)


def _strings(rows):
    return [[str(e) for e in row] for row in rows]


class TestScaledRadical:
    """kramers and langevin2 run in the exact domain, with sqrt(2) a
    generator of it; what the model and the verdicts return is pinned."""

    @pytest.mark.parametrize("name", sorted(_KRAMERS_CANDIDATES))
    def test_kramers(self, kramers, name):
        ctx = kramers.context
        build, gam, lam = _KRAMERS_CANDIDATES[name]
        vf = build(ctx, *ctx.spatial, ctx.t, ctx.params["k"])
        assert _SQRT2 in kramers._coefficients.calc.ring.symbols
        lam_of, gam_of = lambda_gamma(kramers, vf)
        assert _strings(gam_of) == gam
        assert [str(e) for e in lam_of] == lam
        report = check_fp(kramers, vf)
        assert report.overall is OverallVerdict.NOT_SYMMETRY
        assert report.classification is None

    @pytest.mark.parametrize("name", sorted(_LANGEVIN_CANDIDATES))
    def test_langevin2(self, systems, name):
        lan = systems["langevin2.sde"]
        ctx = lan.context
        build, gam, lam = _LANGEVIN_CANDIDATES[name]
        candidate = build(ctx, *ctx.spatial, ctx.t)
        assert _SQRT2 in lan._coefficients.calc.ring.symbols
        lam_of, gam_of = lambda_gamma(lan, candidate)
        assert _strings(gam_of) == gam
        assert [str(e) for e in lam_of] == lam
        if candidate.Bmat is None:
            report = check_fp(lan, candidate)
            assert report.overall is OverallVerdict.NOT_SYMMETRY
            assert report.classification is None

    def test_symmetries_classified(self, systems):
        """The pathwise symmetries extend to Ito symmetries; kramers v5 and
        v6, Fokker-Planck symmetries whose beta is not -div(xi), are not
        classified."""
        ito_symmetry = FpClassification.ITO_SYMMETRY
        for system, expected in (
                ("kramers.sde", {"v1": ito_symmetry, "v2": ito_symmetry,
                                 "v3": ito_symmetry, "v5": None, "v6": None}),
                ("langevin2.sde", {"q1": ito_symmetry, "v1": ito_symmetry,
                                   "v2": ito_symmetry})):
            ito = systems[system]
            prefix = system.split(".")[0].rstrip("2")
            for name, classification in expected.items():
                vf = load_candidate(FIXTURES / f"{prefix}_{name}.cand", ito)
                report = check_fp(ito, vf)
                assert report.is_symmetry
                assert report.normalization_preserving is (
                    classification is not None)
                assert report.classification is classification

    def test_superposition(self, kramers, systems):
        lan = systems["langevin2.sde"]
        (x, y), t = kramers.context.spatial, kramers.context.t
        k = kramers.context.params["k"]
        assert check_superposition(kramers, sp.exp(k**2 * t))
        assert not any(check_superposition(kramers, a)
                       for a in (1, x, y, sp.exp(-t)))
        (x1, x2), t = lan.context.spatial, lan.context.t
        assert check_superposition(lan, sp.exp(2 * t))
        assert not any(check_superposition(lan, a)
                       for a in (1, x1, x1 * x2, sp.exp(-t)))

    def test_apply_discrete(self, kramers, systems):
        lan = systems["langevin2.sde"]
        ctx = kramers.context
        (x, y), t = ctx.spatial, ctx.t

        def moved(ito, phi, R, **kwargs):
            out = apply_discrete(ito, DiscreteMap(ito.context, phi, R),
                                 **kwargs)
            return [[str(e) for e in out.f], _strings(out.sigma)]
        assert moved(kramers, (-x, -y), ((-1,),)) == [
            ["-y", "k**2*y"], [["0"], ["sqrt(2)*k"]]]
        assert moved(kramers, (2 * x, 2 * y), ((1,),)) == [
            ["2*y", "-2*k**2*y"], [["0"], ["2*sqrt(2)*k"]]]
        assert moved(kramers, (x + t, y + t), ((1,),),
                     inverse=(x - t, y - t)) == [
            ["-t + y + 1", "k**2*t - k**2*y + 1"], [["0"], ["sqrt(2)*k"]]]
        (x1, x2), t = lan.context.spatial, lan.context.t
        assert moved(lan, (x2, x1), ((0, 1), (1, 0))) == [
            ["-x2", "-x1"],
            [["sqrt(2)*sqrt(s2)", "0"], ["0", "sqrt(2)*sqrt(s1)"]]]
        assert moved(lan, (x1 + t, x2 + t), ((1, 0), (0, 1)),
                     inverse=(x1 - t, x2 - t)) == [
            ["t - x1 + 1", "t - x2 + 1"],
            [["sqrt(2)*sqrt(s1)", "0"], ["0", "sqrt(2)*sqrt(s2)"]]]
