from pathlib import Path

import pytest
import sympy as sp
from hypothesis import given, settings, strategies as st

import stosym.kernel as kernel
from stosym.detgen import detsys_projectable
from stosym.dsl import load_system
from stosym.kernel import (Context, InconclusiveError, Verdict, _expr,
                           normalize, zero_verdict)
from stosym.model import (DegeneracyError, DiscreteMap, FokkerPlanck,
                          ItoSystem, VectorField, apply_discrete,
                          fokker_planck_of, ito_to_stratonovich, lie_bracket,
                          same_fp, transform_ito_first_order)
from stosym.kpz import KpzChain, kpz_ito
from conftest import (FIXTURES, RING_CTX, random_expression,
                      random_polynomial_system, seeded_rng)


@pytest.fixture
def heat(systems):
    return systems["heat.sde"]


@pytest.fixture
def kramers(systems):
    return systems["kramers.sde"]


class TestItoSystem:
    def test_shape_validation(self):
        ctx = Context(spatial=("x",), noises=("w",))
        with pytest.raises(ValueError):
            ItoSystem(context=ctx, f=(0, 0), sigma=((1,),))
        with pytest.raises(ValueError):
            ItoSystem(context=ctx, f=(0,), sigma=((1, 2),))

    def test_rejects_undeclared_dependence(self):
        ctx = Context(spatial=("x",), noises=("w",))
        u = sp.Symbol("u")
        with pytest.raises(ValueError):
            ItoSystem(context=ctx, f=(u,), sigma=((1,),))

    @pytest.mark.parametrize("n", [3, 8, 16])
    def test_chain_coefficients_equal_normalize(self, n):
        """The constructor converts each entry into the context's ring
        once and stores as_expr(): the same expression as `normalize`."""
        chain = KpzChain(n)
        x, a, b = chain.context.spatial, chain.alpha, chain.beta
        raw = [a * (x[(i + 1) % n] - 2 * x[i] + x[i - 1])
               + b * (x[(i + 1) % n] - x[i - 1]) ** 2 for i in range(n)]
        ito = kpz_ito(chain)
        assert ito._coefficients is not None
        assert [sp.srepr(e) for e in ito.f] == [sp.srepr(normalize(e))
                                                for e in raw]
        assert ItoSystem(chain.context, f=raw, sigma=ito.sigma,
                         name=ito.name) == ito

    def test_fixture_coefficients_equal_normalize(self, systems):
        """Each fixture entry, as parsed and factored, in and out of the
        ring (langevin and kramers carry sqrt)."""
        for ito in systems.values():
            for entries in (ito.f, *ito.sigma):
                for e in (*entries, *(sp.factor(e) for e in entries)):
                    out = ItoSystem(ito.context, f=(e,) * ito.n,
                                    sigma=((e,) * ito.m,) * ito.n)
                    expected = sp.srepr(normalize(e))
                    assert {sp.srepr(c) for c in (*out.f, *out.sigma[0])} \
                        == {expected}

    def test_equal_after_widening(self, heat):
        """The domains a system widens to are a cache: two equal systems
        stay equal and hash equal after one of them has built one."""
        other = ItoSystem(heat.context, f=heat.f, sigma=heat.sigma,
                          name=heat.name)
        ctx = other.context
        detsys_projectable(other, VectorField(ctx, tau=sp.exp(ctx.t),
                                              xi=ctx.spatial))
        assert other._domains
        assert other == heat and hash(other) == hash(heat)

    def test_half_diffusion(self, kramers):
        k = kramers.context.symbol("k")
        assert fokker_planck_of(kramers).A == ((0, 0), (0, -k**2))


class TestFokkerPlanck:
    def test_heat_coefficients(self, heat):
        fp = fokker_planck_of(heat)
        s0 = heat.context.symbol("s0")
        assert normalize(fp.A[0][0] + s0**2 / 2) == 0
        assert fp.B == (0,)
        assert fp.C == 0

    def test_kramers_coefficients(self, kramers):
        fp = fokker_planck_of(kramers)
        k = kramers.context.symbol("k")
        x, y = kramers.context.spatial
        assert sp.Matrix(fp.A) == sp.Matrix([[0, 0], [0, -k**2]])
        assert tuple(normalize(e) for e in fp.B) == (y, -k**2 * y)
        assert normalize(fp.C + k**2) == 0

    def test_same_fp_for_rotating_noise(self, systems):
        rot = systems["rotating.sde"]
        ident = ((sp.Integer(1), sp.Integer(0)), (sp.Integer(0), sp.Integer(1)))
        assert same_fp(rot.sigma, ident)
        stretched = ((sp.Integer(2), sp.Integer(0)), (sp.Integer(0), sp.Integer(1)))
        assert not same_fp(rot.sigma, stretched)

    def test_same_fp_undecided_raises(self, systems, monkeypatch):
        import stosym.kernel as kernel
        monkeypatch.setattr(kernel, "zero_verdict",
                            lambda e: Verdict.INCONCLUSIVE)
        rot = systems["rotating.sde"]
        with pytest.raises(kernel.InconclusiveError):
            same_fp(rot.sigma, rot.sigma)

    @pytest.mark.parametrize("call,message", [
        (lambda x: FokkerPlanck(Context(spatial=("x", "y")), A=((1,),),
                                B=(0, 0), C=0), "A must be 2x2"),
        (lambda x: same_fp(((1,),), ((1, 0),)),
         "diffusion matrices must have equal shapes"),
        (lambda x: lie_bracket((x,), (x, 1), (x,)),
         "component sequences must have equal length"),
    ], ids=["A-shape", "same-fp-shapes", "bracket-lengths"])
    def test_rejects_unequal_shapes(self, call, message):
        with pytest.raises(ValueError) as err:
            call(sp.Symbol("x", real=True))
        assert err.value.args == (message,)

    def test_degenerate_diffusion_raises(self):
        ctx = Context(spatial=("x",), noises=("w",))
        ito = ItoSystem(context=ctx, f=(ctx.spatial[0],),
                        sigma=((sp.Integer(0),),))
        with pytest.raises(DegeneracyError):
            fokker_planck_of(ito)

    def test_undecided_degeneracy_raises(self, monkeypatch):
        """An undecided S is not read as 'not degenerate'. In the exact
        domain S == 0 decides, so the noise is exp(x), on the expression
        path, where the zero test decides."""
        import stosym.kernel as kernel
        ctx = Context(spatial=("x",), noises=("w",))
        fresh = ItoSystem(ctx, f=(0,), sigma=((sp.exp(ctx.spatial[0]),),))

        def undecided(e):
            return Verdict.INCONCLUSIVE
        monkeypatch.setattr(kernel, "zero_verdict", undecided)
        with pytest.raises(kernel.InconclusiveError):
            fokker_planck_of(fresh)

    def test_nondegenerate_diffusion(self, heat):
        s0 = heat.context.symbol("s0")
        A = fokker_planck_of(heat).A
        assert normalize(A[0][0] + s0**2 / 2) == 0


# systems whose sigma holds sqrt or exp, next to the random polynomial ones
NAMED_SYSTEMS = {name: load_system(path) for name, path in (
    ("kramers", FIXTURES / "kramers.sde"),
    ("langevin2", FIXTURES / "langevin2.sde"),
    ("expnoise", Path(__file__).resolve().parent / "data" / "expnoise.sde"))}


def _fp_formula(ito):
    """A, B and C of the associated Fokker-Planck equation straight from
    the formulas, on sympy matrices: A = -(1/2) sigma sigma^T,
    B^i = f^i + 2 d_j A^{ij}, C = d_i f^i + d2_{ij} A^{ij}."""
    x, n = ito.context.spatial, ito.n
    s = sp.Matrix(ito.sigma)
    A = -s * s.T / 2
    B = [ito.f[i] + 2 * sum(sp.diff(A[i, j], x[j]) for j in range(n))
         for i in range(n)]
    C = sum(sp.diff(ito.f[i], x[i]) for i in range(n)) + sum(
        sp.diff(A[i, j], x[i], x[j]) for i in range(n) for j in range(n))
    return A, B, C


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.randoms(use_true_random=False),
       st.sampled_from([None, *NAMED_SYSTEMS]))
def test_fokker_planck_of_matches_formula(rng, name):
    """fokker_planck_of, built from the system's engine in the ring or on
    expressions, gives the normalized coefficients of the formulas; a
    vanishing sigma sigma^T is rejected."""
    ito = random_polynomial_system(rng) if name is None else NAMED_SYSTEMS[name]
    A, B, C = _fp_formula(ito)
    if all(normalize(e) == 0 for e in A):
        with pytest.raises(DegeneracyError):
            fokker_planck_of(ito)
        return
    fp = fokker_planck_of(ito)
    assert fp.A == tuple(tuple(normalize(e) for e in A.row(i))
                         for i in range(ito.n))
    assert fp.B == tuple(normalize(e) for e in B)
    assert fp.C == normalize(C)


def _dense_image(ito, phi, R):
    """L phi and (dphi/dx) sigma R^T of y = phi(x, t) on sympy matrices,
    straight from the formulas: L = d_t + f^a d_a + S^{ab} d2_{ab} with
    S = (1/2) sigma sigma^T."""
    x, t = ito.context.spatial, ito.context.t
    s = sp.Matrix(ito.sigma)
    S = s * s.T / 2
    J = sp.Matrix(phi).jacobian(x)
    drift = [sp.diff(p, t) + sum(f * sp.diff(p, v) for f, v in zip(ito.f, x))
             + sum(S[a, b] * sp.diff(p, x[a], x[b])
                   for a in range(len(x)) for b in range(len(x)))
             for p in phi]
    return drift, J * s * sp.Matrix(R).T


def _close(a, b):
    """a and b agree up to the rounding of Float coefficients."""
    d = sp.expand(_expr(a) - b)
    return d == 0 or all(abs(c) < 1e-9 for c in sp.Poly(
        d, *sorted(d.free_symbols, key=lambda s: s.name)).coeffs())


@pytest.mark.parametrize("R", [
    ((0, -1), (1, 0)),
    ((sp.Rational(3, 5), sp.Rational(-4, 5)),
     (sp.Rational(4, 5), sp.Rational(3, 5)))],
    ids=["signed_permutation", "rotation"])
@pytest.mark.parametrize("floats", [False, True], ids=["ring", "expressions"])
def test_sparse_image_matches_dense(R, floats):
    """image, which sums sigma R^T and the noise image over nonzero entries
    only, gives the dense formulas, in the ring and, for a system with
    Float coefficients, on expressions. The rotation's rows share both
    columns."""
    from stosym.model import _EXPRS
    for seed in range(8):
        rng = seeded_rng(seed)
        ito = random_polynomial_system(rng)
        if floats:
            ito = ItoSystem(context=ito.context, f=ito.f, sigma=tuple(
                tuple(sp.Float(0.5) * e for e in row) for row in ito.sigma))
        phi = tuple(random_expression(rng, RING_CTX, depth=2,
                                      functions=False) for _ in range(2))
        c, (ph, *rows) = ito._of([phi, *R])
        assert (c.calc is _EXPRS) == floats
        drift, noise = c.image(ph, rows)
        want_drift, want_noise = _dense_image(ito, phi, R)
        assert all(_close(a, b) for a, b in zip(drift, want_drift)), seed
        assert all(_close(noise[i][k], want_noise[i, k])
                   for i in range(2) for k in range(2)), seed


def test_zero_entries_skipped_by_truthiness():
    """The expression calculus skips a zero entry by truthiness, not by
    != 0. On sympy >= 1.13 a Float 0.0 is falsy but != 0, so the two tests
    differ on it; the sums do not, since a product with a Float zero is
    the Integer 0, which the sum drops."""
    from stosym.model import _EXPRS
    x, y = sp.symbols("x y", real=True)
    z, zero = sp.Float(0.0), sp.Integer(0)
    assert not z and not zero

    def dot_ne(u, v):
        return sp.Add(*[a * b for a, b in zip(u, v) if a != 0 and b != 0])

    def second_order_ne(entries, grad, xs):
        return sp.Add(*[w * _EXPRS.d(grad[a], xs[b]) for a, b, w in entries
                        if grad[a] != 0])
    pairs = [([z], [sp.Integer(2)]), ([sp.Integer(1)], [z]), ([z, z], [x, y]),
             ([z, x, zero, sp.Integer(2)], [y, z, x, sp.Float(1.5)]),
             ([z, sp.Float(0.5) * x], [sp.sqrt(2), y])]
    for u, v in pairs:
        assert sp.srepr(_EXPRS.dot(u, v)) == sp.srepr(dot_ne(u, v)), (u, v)
    grad = [z, x * y, sp.Float(1.5) * x**2, zero]
    entries = [(0, 0, sp.Integer(1)), (1, 0, sp.Rational(1, 2)),
               (2, 1, z), (2, 0, sp.Integer(3)), (3, 1, sp.Integer(5))]
    for es in (entries, entries[:1], entries[3:]):
        assert sp.srepr(_EXPRS.second_order(es, grad, (x, y))) == sp.srepr(
            second_order_ne(es, grad, (x, y))), es


def test_ito_to_stratonovich_multiplicative_noise():
    ctx = Context(spatial=("x",), noises=("w",))
    x = ctx.spatial[0]
    ito = ItoSystem(context=ctx, f=(sp.Integer(0),), sigma=((x,),))
    b = ito_to_stratonovich(ito)
    assert normalize(b[0] + x / 2) == 0


def test_lie_bracket_antisymmetry_and_value():
    ctx = Context(spatial=("x", "y"), noises=("w",))
    x, y = ctx.spatial
    f = (x * y, y**2)
    g = (y, x)
    fwd = lie_bracket(f, g, (x, y))
    bwd = lie_bracket(g, f, (x, y))
    assert all(normalize(a + b) == 0 for a, b in zip(fwd, bwd))
    assert normalize(fwd[0] - (f[0] * 0 + f[1] * 1 - g[0] * y - g[1] * x)) == 0


class TestFirstOrderTransform:
    def test_time_linear_shift_on_heat(self, heat):
        ctx = heat.context
        s0 = ctx.symbol("s0")
        delta_f, delta_sigma = transform_ito_first_order(heat, (s0**2 * ctx.t,))
        assert normalize(delta_f[0] - s0**2) == 0
        assert delta_sigma[0][0] == 0

    def test_scaling_on_unit_noise(self):
        ctx = Context(spatial=("x",), noises=("w",))
        x = ctx.spatial[0]
        ito = ItoSystem(context=ctx, f=(sp.Integer(0),), sigma=((sp.Integer(1),),))
        delta_f, delta_sigma = transform_ito_first_order(ito, (x,))
        assert delta_f[0] == 0
        assert delta_sigma[0][0] == 1


class TestDiscreteMap:
    def test_orthogonality_enforced(self):
        ctx = Context(spatial=("x",), noises=("w",))
        with pytest.raises(ValueError):
            DiscreteMap(context=ctx, phi=(-ctx.spatial[0],), R=((2,),))

    def test_undecided_orthogonality_raises(self, monkeypatch):
        """An undecided R R^T - I is not read as 'not orthogonal'."""
        import stosym.kernel as kernel
        ctx = Context(spatial=("x",), noises=("w",))
        monkeypatch.setattr(kernel, "zero_verdict",
                            lambda e: Verdict.INCONCLUSIVE)
        with pytest.raises(kernel.InconclusiveError):
            DiscreteMap(context=ctx, phi=(-ctx.spatial[0],), R=((-1,),))

    @pytest.mark.parametrize("R, orthogonal", [
        (((sp.Rational(3, 5), sp.Rational(-4, 5), 0),
          (sp.Rational(4, 5), sp.Rational(3, 5), 0), (0, 0, 1)), True),
        (((0, 2, 0), (0, 0, 2), (2, 0, 0)), False),
        (((sp.Rational(3, 5), sp.Rational(4, 5), 0),
          (sp.Rational(4, 5), sp.Rational(3, 5), 0), (0, 0, 1)), False)],
        ids=["rotation_block", "twice_a_permutation", "shared_column"])
    def test_orthogonality_over_structural_nonzeros(self, R, orthogonal):
        """R R^T = I is decided over the diagonal and the pairs of rows
        that share a column. The rotation block's rows 1 and 2 share two
        columns and are orthogonal; in the last case each row has norm 1
        but rows 1 and 2, which share columns, are not orthogonal, so only
        the off-diagonal entry rejects it."""
        ctx = Context(spatial=("x", "y", "z"), noises=("u", "v", "w"))
        if orthogonal:
            assert DiscreteMap(context=ctx, phi=ctx.spatial, R=R).R == tuple(
                tuple(sp.sympify(e) for e in row) for row in R)
        else:
            with pytest.raises(ValueError, match="orthogonal"):
                DiscreteMap(context=ctx, phi=ctx.spatial, R=R)

    def test_reflection_fixes_langevin(self, systems):
        lan = systems["langevin2.sde"]
        ctx = lan.context
        x1, x2 = ctx.spatial
        dmap = DiscreteMap(context=ctx, phi=(-x1, -x2),
                           R=((-1, 0), (0, -1)))
        inv = (-x1, -x2)
        out = apply_discrete(lan, dmap, inverse=inv)
        assert all(normalize(a - b) == 0 for a, b in zip(out.f, lan.f))
        assert all(normalize(a - b) == 0
                   for ra, rb in zip(out.sigma, lan.sigma)
                   for a, b in zip(ra, rb))

    def test_nonsymmetry_map_changes_drift(self, systems):
        lan = systems["langevin2.sde"]
        ctx = lan.context
        x1, x2 = ctx.spatial
        dmap = DiscreteMap(context=ctx, phi=(2 * x1, x2), R=((1, 0), (0, 1)))
        out = apply_discrete(lan, dmap, inverse=(x1 / 2, x2))
        assert zero_verdict(out.sigma[0][0]
                            - lan.sigma[0][0]) is Verdict.NONZERO


class TestCandidateValidation:
    def test_tau_must_be_time_only(self):
        ctx = Context(spatial=("x",), noises=("w",))
        with pytest.raises(ValueError):
            VectorField(context=ctx, tau=ctx.spatial[0])

    def test_w_matrix_antisymmetric(self):
        ctx = Context(spatial=("x", "y"), noises=("w1", "w2"))
        with pytest.raises(ValueError):
            VectorField(context=ctx, Bmat=((0, 1), (1, 0)))

    def test_w_matrix_antisymmetric_up_to_radicals(self):
        # sqrt(3 + 2 sqrt 2) = 1 + sqrt 2, which normalize leaves unproven
        # and the zero test proves
        ctx = Context(spatial=("x", "y"), noises=("w1", "w2"))
        b = sp.sqrt(3 + 2 * sp.sqrt(2))
        ws = VectorField(context=ctx, Bmat=((0, b), (-1 - sp.sqrt(2), 0)))
        assert ws.Bmat[0][1] == b

    def test_undecided_antisymmetry_raises(self, monkeypatch):
        ctx = Context(spatial=("x", "y"), noises=("w1", "w2"))
        monkeypatch.setattr(kernel, "zero_verdict",
                            lambda e: Verdict.INCONCLUSIVE)
        with pytest.raises(InconclusiveError):
            VectorField(context=ctx, Bmat=((0, 1), (-1, 0)))

    def test_fp_symmetry_up_to_radicals(self, monkeypatch):
        ctx = Context(spatial=("x", "y"), noises=("w1", "w2"))
        b = sp.sqrt(3 + 2 * sp.sqrt(2))
        FokkerPlanck(context=ctx, A=((1, b), (1 + sp.sqrt(2), 1)), B=(0, 0),
                     C=0)
        with pytest.raises(ValueError):
            FokkerPlanck(context=ctx, A=((1, b), (1, 1)), B=(0, 0), C=0)
        monkeypatch.setattr(kernel, "zero_verdict",
                            lambda e: Verdict.INCONCLUSIVE)
        with pytest.raises(InconclusiveError):
            FokkerPlanck(context=ctx, A=((1, 0), (0, 1)), B=(0, 0), C=0)

    def test_w_matrix_constant(self):
        ctx = Context(spatial=("x", "y"), noises=("w1", "w2"))
        with pytest.raises(ValueError):
            VectorField(context=ctx, Bmat=((0, ctx.t), (-ctx.t, 0)))

    def test_beta_and_mixer_rejected(self):
        ctx = Context(spatial=("x", "y"), noises=("w1", "w2"))
        with pytest.raises(ValueError, match="beta is not supported on "
                                             "noise-mixing candidates"):
            VectorField(context=ctx, beta=1, Bmat=())


class TestPublicConstructionNormalizes:
    """Built from user code, every model class normalizes its entries and
    validates them, as the package's own builds do. The public zero test
    and printer normalize raw input too."""
    CTX = Context(spatial=("x", "y"), params={"k": "positive"},
                  noises=("w1", "w2"))
    x, y = CTX.spatial
    t, k = CTX.t, CTX.symbol("k")
    POLY = x * (x + 1)                          # x**2 + x
    RADICAL = sp.sqrt(2) * (k + 1)              # sqrt(2)*k + sqrt(2)
    HALF = sp.sqrt(2) * (k + 1) / (2 * k + 2)   # sqrt(2)/2
    # kind -> (class, fields); a W generator is a VectorField with a mixer
    KINDS = {"ItoSystem": (ItoSystem, ("f", "sigma")),
             "FokkerPlanck": (FokkerPlanck, ("A", "B", "C")),
             "VectorField": (VectorField, ("tau", "xi", "beta")),
             "VectorField-Bmat": (VectorField, ("tau", "xi", "Bmat")),
             "DiscreteMap": (DiscreteMap, ("phi", "R"))}

    @classmethod
    def build(cls, kind, **overrides):
        P, Q, c = cls.POLY, cls.RADICAL, cls.HALF
        fields = {
            "ItoSystem": dict(f=(P, Q), sigma=((Q, 0), (0, P))),
            "FokkerPlanck": dict(A=((Q, P), (P, Q)), B=(P, Q), C=P),
            "VectorField": dict(tau=cls.t * (cls.t + 1), xi=(P, Q), beta=P),
            "VectorField-Bmat": dict(tau=Q, xi=(P, Q),
                                     Bmat=((0, Q), (-Q, 0))),
            "DiscreteMap": dict(phi=(P, Q), R=((c, -c), (c, c))),
        }[kind]
        return cls.KINDS[kind][0](context=cls.CTX, **{**fields, **overrides})

    @pytest.mark.parametrize("kind", list(KINDS))
    def test_stores_normalized_entries(self, kind):
        value, entries = self.build(kind), []
        stack = [getattr(value, name) for name in self.KINDS[kind][1]]
        while stack:
            e = stack.pop()
            if isinstance(e, tuple):
                stack.extend(e)
            else:
                entries.append(e)
        stored = [sp.srepr(e) for e in entries]
        assert stored == [sp.srepr(normalize(e)) for e in entries]
        assert sp.srepr(normalize(self.POLY)) in stored
        assert not {sp.srepr(e) for e in (self.POLY, self.RADICAL,
                                          self.HALF)} & set(stored)

    @pytest.mark.parametrize("kind, overrides", [
        ("ItoSystem", dict(f=(POLY,))),
        ("ItoSystem", dict(sigma=((RADICAL, 0),))),
        ("ItoSystem", dict(f=(sp.Symbol("u"), 0))),
        ("FokkerPlanck", dict(A=((RADICAL, POLY), (0, RADICAL)))),
        ("FokkerPlanck", dict(B=(POLY,))),
        ("VectorField", dict(xi=(POLY,))),
        ("VectorField", dict(tau=x)),
        ("VectorField-Bmat", dict(Bmat=((0, RADICAL), (RADICAL, 0)))),
        ("VectorField-Bmat", dict(Bmat=((0, x), (-x, 0)))),
        ("VectorField-Bmat", dict(Bmat=((0,),))),
        ("DiscreteMap", dict(R=((HALF, HALF), (HALF, HALF)))),
        ("DiscreteMap", dict(R=((0, t), (t, 0)))),
        ("DiscreteMap", dict(phi=(POLY,))),
    ], ids=["f-length", "sigma-shape", "foreign-symbol", "A-not-symmetric",
            "B-length", "xi-length", "tau-in-x", "B-not-antisymmetric",
            "B-not-constant", "B-shape", "R-not-orthogonal",
            "R-not-constant", "phi-length"])
    def test_rejects_bad_input(self, kind, overrides):
        with pytest.raises(ValueError):
            self.build(kind, **overrides)

    def test_zero_verdict_and_to_dsl_normalize_raw_input(self, monkeypatch):
        """None of the three inputs is a polynomial. The residual and
        sqrt(2) (k + 1) lie in the exact domain; sqrt(2)/2 written over
        2 k + 2, a denominator that is not a monomial, takes the general
        loop once."""
        calls = []
        loop = kernel._normalize_loop
        monkeypatch.setattr(kernel, "_normalize_loop",
                            lambda e: calls.append(e) or loop(e))
        residual = self.RADICAL - sp.sqrt(2) * self.k - sp.sqrt(2)
        assert zero_verdict(residual) is Verdict.ZERO
        assert kernel.to_dsl(self.RADICAL) == "sqrt(2)*k + sqrt(2)"
        assert kernel.to_dsl(self.HALF) == "sqrt(2)/2"
        assert calls == [self.HALF]
