import pytest
import sympy as sp

from stosym.kernel import Context, normalize
from stosym.model import (ItoSystem, VectorField, WSymmetry,
                          transform_ito_first_order)
from stosym.detgen import (detsys_ode, detsys_projectable, detsys_spatial,
                           detsys_w, gamma, lambda_)
from stosym.kpz import KpzChain, kpz_ito
from conftest import random_expression, seeded_rng


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
            ws = WSymmetry(context=ctx, tau=vf.tau, xi=vf.xi)
            a = detsys_w(kramers, ws)
            b = detsys_projectable(kramers, vf)
            assert len(a.equations) == len(b.equations)
            for (_, ea), (_, eb) in zip(a.equations, b.equations):
                assert normalize(ea - eb) == 0

    def test_projectable_with_zero_tau_equals_spatial(self, kramers):
        rng = seeded_rng(11)
        ctx = kramers.context
        for _ in range(5):
            vf = _random_vf(rng, ctx, with_tau=False)
            a = detsys_projectable(kramers, vf)
            b = detsys_spatial(kramers, vf.xi)
            for (_, ea), (_, eb) in zip(a.equations, b.equations):
                assert normalize(ea - eb) == 0


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
            lam = lambda_(ito, vf)
            gam = gamma(ito, vf)
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
