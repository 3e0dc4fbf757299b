from pathlib import Path

import pytest
import sympy as sp
from hypothesis import given, settings, strategies as st

import stosym.kernel as kernel
from stosym.detgen import detsys_projectable
from stosym.dsl import load_system
from stosym.kernel import (Context, InconclusiveError, Verdict, normalize,
                           zero_verdict)
from stosym.model import (DegeneracyError, DiscreteMap, FokkerPlanck,
                          ItoSystem, VectorField, apply_discrete, diffusion_matrix,
                          fokker_planck_of, ito_to_stratonovich, lie_bracket,
                          same_fp, transform_ito_first_order)
from stosym.kpz import KpzChain, kpz_ito
from conftest import FIXTURES, random_polynomial_system


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
        assert diffusion_matrix(kramers) == ((0, 0), (0, k**2))


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

    def test_degenerate_diffusion_raises(self):
        ctx = Context(spatial=("x",), noises=("w",))
        ito = ItoSystem(context=ctx, f=(ctx.spatial[0],),
                        sigma=((sp.Integer(0),),))
        with pytest.raises(DegeneracyError):
            diffusion_matrix(ito)

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
            diffusion_matrix(fresh)

    def test_nondegenerate_diffusion(self, heat):
        s0 = heat.context.symbol("s0")
        S = diffusion_matrix(heat)
        assert normalize(S[0][0] - s0**2 / 2) == 0


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
