from collections import Counter
from pathlib import Path
from unittest import mock

import pytest
import sympy as sp
from sympy.polys.rings import PolyElement
from hypothesis import given, settings, strategies as st

from stosym import solve
from stosym.dsl import load_system
from stosym.kernel import (Context, InconclusiveError, Verdict, normalize,
                           parse_expr, to_dsl)
from stosym.model import ItoSystem, VectorField, WSymmetry
from stosym.detgen import detsys_projectable, detsys_w
from stosym.verify import OverallVerdict, VerificationReport, check
from stosym.solve import (Ansatz, NonClosedBasisError,
                          NonlinearEntanglementError, SymmetryBasis,
                          commutator, commutator_closure, default_time_basis,
                          membership_coordinates, solve_ansatz,
                          xi_second_derivative_constraint)
from conftest import RING_CTX, random_polynomial_system

DATA = Path(__file__).resolve().parent / "data"


def _poly_ansatz(ito, degree, rates=(), include_B=False):
    t = ito.context.t
    return Ansatz(degree=degree, time_basis=default_time_basis(t, rates),
                  t=t, include_B=include_B)


class TestAnsatz:
    def test_closure_validated(self, systems):
        t = systems["heat.sde"].context.t
        with pytest.raises(NonClosedBasisError):
            Ansatz(degree=1, time_basis=(t,), t=t)

    def test_exponential_basis_closed(self, systems):
        t = systems["heat.sde"].context.t
        Ansatz(degree=1, time_basis=default_time_basis(t, (2,)), t=t)

    @pytest.mark.parametrize("rates,kept", [
        ((0,), "1, t, t**2"),
        ((1, -1), "1, t, t**2, exp(t), exp(-t), t*exp(t), t*exp(-t)")],
        ids=["exp0", "exp1-exp-1"])
    def test_dependent_elements_dropped(self, systems, rates, kept):
        """A repeated or vanishing element leaves the basis; the first
        occurrence stays."""
        t = systems["heat.sde"].context.t
        ansatz = Ansatz(degree=1, time_basis=default_time_basis(t, rates), t=t)
        assert ansatz.time_basis == sp.sympify(f"({kept},)", locals={"t": t})


class TestHeat:
    def test_dimension_three(self, systems):
        heat = systems["heat.sde"]
        basis = solve_ansatz(heat, _poly_ansatz(heat, 1))
        assert basis.dimension == 3

    def test_expected_span(self, systems):
        heat = systems["heat.sde"]
        ctx = heat.context
        x, t = ctx.spatial[0], ctx.t
        basis = solve_ansatz(heat, _poly_ansatz(heat, 1))
        targets = [
            VectorField(context=ctx, tau=1),
            VectorField(context=ctx, tau=0, xi=(sp.Integer(1),)),
            VectorField(context=ctx, tau=2 * t, xi=(x,)),
        ]
        for vf in targets:
            assert membership_coordinates(basis, vf) is not None

    def test_nonmember_excluded(self, systems):
        heat = systems["heat.sde"]
        ctx = heat.context
        basis = solve_ansatz(heat, _poly_ansatz(heat, 1))
        bad = VectorField(context=ctx, tau=0, xi=(ctx.spatial[0],))
        assert membership_coordinates(basis, bad) is None

    def test_closure(self, systems):
        heat = systems["heat.sde"]
        report = commutator_closure(solve_ansatz(heat, _poly_ansatz(heat, 1)))
        assert report.closed
        assert report.table == {(0, 1): (1, 0, 0), (0, 2): (0, 0, 0),
                                (1, 2): (0, 0, -2)}

    @pytest.mark.parametrize("rates", [(0,), (1, -1)],
                             ids=["exp0", "exp1-exp-1"])
    def test_dependent_time_basis(self, systems, rates):
        """A linearly dependent time basis spans the same generators as the
        default one, each once."""
        heat = systems["heat.sde"]
        basis = solve_ansatz(heat, _poly_ansatz(heat, 1, rates))
        assert basis.dimension == 3
        assert _dsl(basis) == _dsl(solve_ansatz(heat, _poly_ansatz(heat, 1)))

    def test_repeated_generator_pins_free_coordinates(self, systems):
        """In a basis with a repeated generator the target's coordinates are
        not unique; the free ones are 0."""
        ctx = systems["heat.sde"].context
        s0 = ctx.params["s0"]
        dt = VectorField(context=ctx, tau=1)
        dx = VectorField(context=ctx, tau=0, xi=(s0,))
        basis = SymmetryBasis(generators=(dt, dx, dt))
        target = VectorField(context=ctx, tau=2, xi=(sp.Integer(1),))
        assert membership_coordinates(basis, target) == (2, 1 / s0, 0)

    def test_empty_basis(self, systems):
        """The zero field lies in the span of no generators; any other
        field does not."""
        ctx = systems["heat.sde"].context
        empty = SymmetryBasis(generators=())
        assert membership_coordinates(empty, VectorField(ctx, tau=0)) == ()
        assert membership_coordinates(empty, VectorField(ctx, tau=1)) is None

    def test_soundness(self, systems):
        heat = systems["heat.sde"]
        for g in solve_ansatz(heat, _poly_ansatz(heat, 1)).generators:
            assert check(detsys_projectable(heat, g)).is_symmetry


class TestNonlinear:
    def test_only_time_translation(self, systems):
        nl = systems["norm_coupled2.sde"]
        basis = solve_ansatz(nl, _poly_ansatz(nl, 2, rates=(2,)))
        assert basis.dimension == 1
        g = basis.generators[0]
        assert normalize(g.tau - 1) == 0
        assert all(e == 0 for e in g.xi)

    def test_w_search_recovers_rotation(self, systems):
        nl = systems["norm_coupled2.sde"]
        ctx = nl.context
        x1, x2 = ctx.spatial
        basis = solve_ansatz(nl, _poly_ansatz(nl, 2, rates=(2,), include_B=True),
                             which="w")
        assert basis.dimension == 2
        rotation = WSymmetry(context=ctx, tau=0, xi=(x2, -x1),
                             Bmat=((0, 1), (-1, 0)))
        assert check(detsys_w(nl, rotation)).is_symmetry


class TestLangevin:
    def test_w_dimension(self, systems):
        lan = systems["langevin2.sde"]
        basis = solve_ansatz(lan, _poly_ansatz(lan, 1, rates=(1, 2),
                                               include_B=True), which="w")
        assert basis.dimension == 5

    def test_projectable_subset_of_w(self, systems):
        lan = systems["langevin2.sde"]
        proj = solve_ansatz(lan, _poly_ansatz(lan, 1, rates=(1, 2)))
        w = solve_ansatz(lan, _poly_ansatz(lan, 1, rates=(1, 2),
                                           include_B=True), which="w")
        assert proj.dimension == 4
        assert w.dimension == proj.dimension + 1

    def test_projectable_closure(self, systems):
        lan = systems["langevin2.sde"]
        basis = solve_ansatz(lan, _poly_ansatz(lan, 1, rates=(1, 2)))
        table = {(0, 3): (1, 0, 0, 0), (1, 3): (0, 2, 0, 0),
                 (2, 3): (0, 0, 1, 0)}
        zero = (0, 0, 0, 0)
        assert commutator_closure(basis).table == {
            (i, j): table.get((i, j), zero)
            for i in range(4) for j in range(i + 1, 4)}


def _dsl(basis):
    out = []
    for g in basis.generators:
        row = [to_dsl(g.tau), *map(to_dsl, g.xi)]
        if isinstance(g, WSymmetry):
            row.append([[to_dsl(e) for e in r] for r in g.Bmat])
        out.append(row)
    return out


_Z = [["0", "0"], ["0", "0"]]

# Exact generator lists, in order, as the solver gave them when it still
# matched coefficients over one residual with symbolic unknowns.
PINNED = [
    ("heat.sde", 1, (), "projectable",
     [["0", "1"], ["2*t", "x"], ["1", "0"]]),
    ("norm_coupled2.sde", 2, (2,), "w",
     [["0", "x2", "-x1", [["0", "1"], ["-1", "0"]]],
      ["1", "0", "0", _Z]]),
    ("langevin2.sde", 1, (1, 2), "w",
     [["0", "exp(-t)", "0", _Z],
      ["-exp(-2*t)", "x1*exp(-2*t)", "x2*exp(-2*t)", _Z],
      ["0", "x2", "-s2*x1/s1",
       [["0", "sqrt(s2)/sqrt(s1)"], ["-sqrt(s2)/sqrt(s1)", "0"]]],
      ["0", "0", "exp(-t)", _Z],
      ["1", "0", "0", _Z]]),
    ("langevin2.sde", 1, (1, 2), "projectable",
     [["0", "exp(-t)", "0"],
      ["-exp(-2*t)", "x1*exp(-2*t)", "x2*exp(-2*t)"],
      ["0", "0", "exp(-t)"],
      ["1", "0", "0"]]),
    # exponential time-basis elements on systems in QQ[params, x, t]
    ("ou.sde", 1, ("a",), "projectable",
     [["0", "exp(-a*t)"], ["1", "0"]]),
    ("ou1.sde", 1, (1, 2), "projectable",
     [["0", "exp(-t)"], ["-exp(-2*t)", "x*exp(-2*t)"], ["1", "0"]]),
]


def _system(systems, name):
    return systems.get(name) or load_system(DATA / name)


class TestRegressionPins:
    @pytest.mark.parametrize("name,degree,rates,which,expected", PINNED,
                             ids=[f"{p[0]}-{p[3]}" for p in PINNED])
    def test_generators_unchanged(self, systems, name, degree, rates, which,
                                  expected):
        ito = _system(systems, name)
        rates = [parse_expr(str(r), ito.context) for r in rates]
        ansatz = _poly_ansatz(ito, degree, rates, include_B=which == "w")
        assert _dsl(solve_ansatz(ito, ansatz, which=which)) == expected

    @pytest.mark.parametrize("name,degree,rates", [
        ("langevin2.sde", 1, (1, 2)), ("norm_coupled2.sde", 2, (2,))])
    def test_w_soundness(self, systems, name, degree, rates):
        ito = systems[name]
        basis = solve_ansatz(ito, _poly_ansatz(ito, degree, rates, include_B=True),
                             which="w")
        for g in basis.generators:
            assert check(detsys_w(ito, g)).is_symmetry

    def test_time_dependence_outside_ansatz(self, systems):
        rot = systems["rotating.sde"]
        with pytest.raises(NonlinearEntanglementError,
                           match=r"cos\(t\) is not polynomial"):
            solve_ansatz(rot, _poly_ansatz(rot, 1))


class TestReverificationVerdicts:
    @staticmethod
    def _report(verdict, overall):
        per_equation = (("Lambda[1]", Verdict.ZERO, sp.Integer(0)),
                        ("Gamma[1][1]", verdict, sp.Symbol("r")))
        return VerificationReport("ito-projectable", per_equation, overall)

    @pytest.mark.parametrize("verdict,overall,error", [
        (Verdict.INCONCLUSIVE, OverallVerdict.INCONCLUSIVE, InconclusiveError),
        (Verdict.NONZERO, OverallVerdict.NOT_SYMMETRY,
         NonlinearEntanglementError),
    ])
    def test_failure_names_residual(self, systems, monkeypatch, verdict,
                                    overall, error):
        monkeypatch.setattr(solve, "check",
                            lambda ds: self._report(verdict, overall))
        heat = systems["heat.sde"]
        with pytest.raises(error, match=r"Gamma\[1\]\[1\]"):
            solve_ansatz(heat, _poly_ansatz(heat, 1))


class TestStructure:
    def test_degree_monotonicity(self, systems):
        heat = systems["heat.sde"]
        d0 = solve_ansatz(heat, _poly_ansatz(heat, 0)).dimension
        d1 = solve_ansatz(heat, _poly_ansatz(heat, 1)).dimension
        assert d0 <= d1

    def test_hessian_constraint_caps_degree(self, systems):
        fact = xi_second_derivative_constraint(systems["heat.sde"])
        assert fact.applies
        assert fact.degree_cap == 1

    def test_hessian_constraint_skips_x_dependent_sigma(self):
        from stosym.kernel import Context
        from stosym.model import ItoSystem
        ctx = Context(spatial=("x",), noises=("w",))
        x = ctx.spatial[0]
        ito = ItoSystem(context=ctx, f=(sp.Integer(0),), sigma=((x,),))
        assert not xi_second_derivative_constraint(ito).applies


class TestCommutator:
    def test_known_bracket(self, systems):
        ctx = systems["heat.sde"].context
        x, t = ctx.spatial[0], ctx.t
        dt = VectorField(context=ctx, tau=1)
        scale = VectorField(context=ctx, tau=2 * t, xi=(x,))
        br = commutator(dt, scale)
        assert normalize(br.tau - 2) == 0
        assert all(e == 0 for e in br.xi)

    def test_antisymmetry(self, systems):
        ctx = systems["heat.sde"].context
        x, t = ctx.spatial[0], ctx.t
        a = VectorField(context=ctx, tau=t**2, xi=(x * t,))
        b = VectorField(context=ctx, tau=2 * t, xi=(x,))
        fwd = commutator(a, b)
        bwd = commutator(b, a)
        assert normalize(fwd.tau + bwd.tau) == 0
        assert all(normalize(u + v) == 0 for u, v in zip(fwd.xi, bwd.xi))


# ---------------------------------------------------------------------------
# the coefficient matrix built in the ring with exponential generators
# against the one built through the expression branch

_RATES = (1, -1, 2, -2, RING_CTX.params["k"])


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.randoms(use_true_random=False))
def test_exp_ring_matrix_matches_expression_path(rng):
    """A random polynomial system and a random exponential time basis give
    the same coefficient matrix, up to the order of its rows, and so the
    same pivots and the same RREF, in the ring with d/dt E = c E as
    through sympy expressions."""
    ito = random_polynomial_system(rng)
    t = RING_CTX.t
    rates = rng.sample(_RATES, rng.randint(1, 2))
    ansatz = Ansatz(degree=rng.randint(0, 1), t=t, include_B=True,
                    time_basis=default_time_basis(t, rates))

    def matrix(columns):
        """The multiset of rows and the pivots and rows of the RREF, each
        row as a set of (column, value) pairs."""
        M = solve._coefficient_matrix(columns, (*RING_CTX.spatial, t),
                                      solve.OutsideAnsatzError)
        K = M.domain

        def values(row):
            return frozenset((j, K.to_sympy(v)) for j, v in row.items())
        pivots, rows = solve._rref_rows(M)
        return (Counter(map(values, M.to_sdm().values())), pivots,
                [values(r) for r in rows])

    _, in_ring = solve._columns(ito, ansatz, "w")
    assert all(isinstance(e, PolyElement) for col in in_ring for e in col)
    with mock.patch.object(solve, "_in_exp_ring", lambda *args: None):
        _, on_exprs = solve._columns(ito, ansatz, "w")
    assert not any(isinstance(e, PolyElement) for col in on_exprs for e in col)
    assert matrix(in_ring) == matrix(on_exprs)


def test_exp_ring_refuses_two_exponentials_in_a_term():
    """exp(t) exp(-t) = 1 is no relation of the ring: an entry holding both
    in one term stays on the expression path."""
    ctx = RING_CTX
    t, (x, _) = ctx.t, ctx.spatial
    two = sp.Mul(sp.exp(t), sp.exp(-t), x, evaluate=False)
    assert solve._in_exp_ring(ctx.ring.symbols, ctx.spatial, t,
                              [(sp.exp(t) + x,)]) is not None
    assert solve._in_exp_ring(ctx.ring.symbols, ctx.spatial, t,
                              [(two,)]) is None


@pytest.mark.parametrize("drift,noise,which", [
    ("x*exp(-t)", "exp(-t)", "projectable"), ("x*exp(-t)", "exp(-t)", "w"),
    ("x*exp(-t)", "x*exp(-t)", "w"), ("exp(-t)", "exp(-t)", "projectable"),
    ("x*exp(t)", "exp(t)", "w"), ("x*exp(-t)", "1", "w")])
def test_exponential_system_matches_expression_path(drift, noise, which):
    """The columns multiply the drift and the noise by the candidate, so an
    exponential of the system meets the basis's in one term, exp(2 t)
    exp(-t) = exp(t) among them: solved with exp(+-t), exp(+-2t) in the
    basis, such a system gets the expression path's generators."""
    ctx = Context(spatial=("x",), noises=("w",))
    ito = ItoSystem(ctx, f=(parse_expr(drift, ctx),),
                    sigma=((parse_expr(noise, ctx),),))
    ansatz = _poly_ansatz(ito, 1, (1, 2), include_B=which == "w")
    _, columns = solve._columns(ito, ansatz, which)
    assert not any(isinstance(e, PolyElement) for col in columns for e in col)
    got = _dsl(solve_ansatz(ito, ansatz, which))
    with mock.patch.object(solve, "_in_exp_ring", lambda *args: None):
        assert got == _dsl(solve_ansatz(ito, ansatz, which))
    if (drift, noise, which) == ("x*exp(-t)", "exp(-t)", "projectable"):
        assert got == [["exp(2*t) - 2*exp(t)", "x*exp(t)"]]


@pytest.mark.parametrize("entry", ["exp(x*t)", "exp(t**2)", "exp(t + 1)",
                                   "exp(sqrt(2)*t)", "cos(t)*exp(t)"])
def test_exp_ring_fallback(entry):
    """An exponential whose argument is not c t with c in QQ[params], or
    any other function, leaves the ring."""
    ctx = RING_CTX
    e = sp.sympify(entry, locals={"x": ctx.spatial[0], "t": ctx.t})
    assert solve._in_exp_ring(ctx.ring.symbols, ctx.spatial, ctx.t,
                              [(e,)]) is None


def test_exp_ring_derivation():
    """d/dt (t^2 exp(k t)) = 2 t exp(k t) + k t^2 exp(k t)."""
    ctx = RING_CTX
    t, k = ctx.t, ctx.params["k"]
    calc, ((p,),) = solve._in_exp_ring(ctx.ring.symbols, ctx.spatial, t,
                                       [(t**2 * sp.exp(k * t),)])
    _, ((want,),) = solve._in_exp_ring(
        ctx.ring.symbols, ctx.spatial, t,
        [((2 * t + k * t**2) * sp.exp(k * t),)])
    assert calc.d(p, calc.t) == want


# ---------------------------------------------------------------------------
# radicals: sqrt of a positive parameter as a generator q with p = q^2,
# sqrt of a rational as an algebraic coefficient

def _same_value(a, b):
    """a == b for rational functions of radicals: the expanded numerator of
    a - b is 0, since sympy folds sqrt(n)^2 = n as it expands."""
    return sp.expand(sp.fraction(sp.together(a - b))[0]) == 0


@settings(max_examples=15, deadline=None, derandomize=True, database=None)
@given(st.randoms(use_true_random=False))
def test_radical_ring_matrix_matches_expression_path(rng):
    """A random polynomial system whose noise is scaled by sqrt(2), by
    sqrt(k) for the positive parameter k, or by both, gives the same pivots
    and the same RREF, mapped q -> sqrt(k), in the ring as over EX."""
    base = random_polynomial_system(rng)
    t, k = RING_CTX.t, RING_CTX.params["k"]
    scale = rng.choice([sp.sqrt(2), sp.sqrt(k), sp.sqrt(2) * sp.sqrt(k)])
    ito = ItoSystem(RING_CTX, f=base.f,
                    sigma=[[scale * e for e in row] for row in base.sigma])
    ansatz = Ansatz(degree=rng.randint(0, 1), t=t, include_B=True,
                    time_basis=default_time_basis(
                        t, rng.sample(_RATES, rng.randint(0, 1))))

    def rref(columns):
        M = solve._coefficient_matrix(columns, (*RING_CTX.spatial, t),
                                      solve.OutsideAnsatzError)
        to_sympy = solve._to_sympy(M.domain)
        pivots, rows = solve._rref_rows(M)
        return M.domain, pivots, [{j: to_sympy(v) for j, v in row.items()}
                                  for row in rows]

    _, in_ring = solve._columns(ito, ansatz, "w")
    assert all(isinstance(e, PolyElement) for col in in_ring for e in col)
    with mock.patch.object(solve, "_in_exp_ring", lambda *args: None):
        _, on_exprs = solve._columns(ito, ansatz, "w")
    K, pivots, rows = rref(in_ring)
    K_ex, pivots_ex, rows_ex = rref(on_exprs)
    assert not K.is_EX
    assert pivots == pivots_ex
    for row, row_ex in zip(rows, rows_ex):
        assert sorted(row) == sorted(row_ex)
        assert all(_same_value(row[j], row_ex[j]) for j in row)


def _amplitude_system():
    """langevin2 with its noise amplitudes r_i = sqrt(2 s_i) as parameters
    of QQ[r] and no radical."""
    ctx = Context(spatial=("x1", "x2"), params=("r1", "r2"),
                  noises=("w1", "w2"))
    (x1, x2), r = ctx.spatial, ctx.params
    return ItoSystem(ctx, f=(-x1, -x2),
                     sigma=((r["r1"], 0), (0, r["r2"])))


class TestRadicals:
    @pytest.mark.parametrize("degree,rates,which", [
        (1, (1, 2), "w"), (2, (1,), "projectable")], ids=["w", "projectable"])
    def test_langevin2_matches_amplitude_system(self, systems, degree, rates,
                                                which):
        """Solved on its radicals, langevin2 has the generators of the same
        drift with noise r_i in QQ[r], mapped r_i -> sqrt(2 s_i)."""
        lan, amp = systems["langevin2.sde"], _amplitude_system()
        s = lan.context.params
        back = {amp.context.params[f"r{i}"]: sp.sqrt(2 * s[f"s{i}"])
                for i in (1, 2)}

        def generators(ito, sub):
            ansatz = _poly_ansatz(ito, degree, rates, include_B=which == "w")
            basis = solve_ansatz(ito, ansatz, which=which)
            out = []
            for g in basis.generators:
                row = [g.tau, *g.xi, *(sum(g.Bmat, ()) if which == "w" else ())]
                out.append([to_dsl(normalize(e.xreplace(sub))) for e in row])
            return out
        assert generators(lan, {}) == generators(amp, back)

    @pytest.mark.parametrize("sigma,expected", [
        ("sqrt(a)", [["0", "exp(-t)"], ["1", "0"]]),
        ("sqrt(1 + x^2)", solve.OutsideAnsatzError)], ids=["nonzero", "polynomial"])
    def test_fallback(self, sigma, expected):
        """sqrt of a parameter declared only nonzero, and of a polynomial,
        stay outside the ring and keep the expression path's answer."""
        ctx = Context(spatial=("x",), params={"a": "nonzero"}, noises=("w",))
        x = ctx.spatial[0]
        ito = ItoSystem(ctx, f=(-x,), sigma=((parse_expr(sigma, ctx),),))
        ansatz = _poly_ansatz(ito, 1, (1,))
        assert solve._in_exp_ring(ctx.ring.symbols, ctx.spatial, ctx.t,
                                  [ansatz.time_basis, ito.f,
                                   *ito.sigma]) is None
        if isinstance(expected, list):
            assert _dsl(solve_ansatz(ito, ansatz)) == expected
        else:
            with pytest.raises(expected, match=r"-x/sqrt\(x\*\*2 \+ 1\) is "
                               "not polynomial"):
                solve_ansatz(ito, ansatz)

    def test_parameter_radical_in_a_rate(self, systems):
        """A rate meets a reparametrized parameter: exp(s1 t) becomes
        exp(q^2 t) with q = sqrt(s1) a generator."""
        lan = systems["langevin2.sde"]
        ctx, s1 = lan.context, lan.context.params["s1"]
        calc, (basis, sigma) = solve._in_exp_ring(
            ctx.ring.symbols, ctx.spatial, ctx.t,
            [(sp.exp(s1 * ctx.t),), lan.sigma[0]])
        q = solve._root_generator(s1)
        assert q in calc.ring.symbols and s1 not in calc.ring.symbols
        (_, rate), = calc.rates
        assert rate == calc.ring(q**2)
