import itertools
import re
from pathlib import Path

import pytest
import sympy as sp
from sympy.polys.domains import EX
from sympy.polys.matrices import DomainMatrix
from hypothesis import given, settings, strategies as st

from stosym import solve
from stosym.dsl import load_system
from stosym.kernel import (Context, InconclusiveError, Verdict, _generator,
                           normalize, parse_expr, to_dsl)
from stosym.model import ItoSystem, VectorField
from stosym.detgen import detsys_projectable
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

    def test_shifted_exponential_is_dependent(self, systems):
        """exp(t + 1) = e exp(t) has the rate of exp(t), so exp(t) leaves
        the basis; cos(t) lies outside the ansatz."""
        t = systems["heat.sde"].context.t
        ansatz = Ansatz(degree=1, time_basis=(sp.exp(t + 1), sp.exp(t)), t=t)
        assert ansatz.time_basis == (sp.exp(t + 1),)
        with pytest.raises(NonClosedBasisError,
                           match=r"^cos\(t\) is not polynomial"):
            Ansatz(degree=1, time_basis=(sp.cos(t),), t=t)


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
        rotation = VectorField(context=ctx, tau=0, xi=(x2, -x1),
                               Bmat=((0, 1), (-1, 0)))
        assert check(detsys_projectable(nl, rotation)).is_symmetry


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

    def test_w_closure_refused(self, systems):
        lan = systems["langevin2.sde"]
        w = solve_ansatz(lan, _poly_ansatz(lan, 1, rates=(1, 2),
                                           include_B=True), which="w")
        with pytest.raises(ValueError, match="bases without a noise mixer"):
            commutator_closure(w)

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
        if g.Bmat is not None:
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
    # exponentials in the system: exp(-t - 1) = exp(-1) exp(-t) shares the
    # rate of exp(-t)
    ("expdrift.sde", 1, (1, 2), "projectable",
     [["exp(2*t) - 2*exp(t)", "x*exp(t)"]]),
    ("expshift.sde", 1, (1, 2), "projectable",
     [["E*exp(2*t) - 2*exp(t)", "x*exp(t)"]]),
    # sqrt of a parameter declared only nonzero, over EX
    ("nonzeroroot.sde", 1, (1, 2), "projectable",
     [["0", "exp(-t)"], ["-exp(-2*t)", "x*exp(-2*t)"], ["1", "0"]]),
    # the inverse of a parameter, in the drift and in a rate, over EX
    ("invrate.sde", 1, ("1/a",), "projectable",
     [["0", "exp(-t/a)"], ["1", "0"]]),
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
            assert check(detsys_projectable(ito, g)).is_symmetry

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
# the solver against undetermined coefficients on sympy expressions, which
# shares no code with it: the generic candidate of the ansatz with one
# unknown coefficient per basis element, its residuals from detgen, and
# their coefficients over x, t and the exponentials that sympy's expand
# leaves (it splits exp(c t + d) into exp(d) exp(c t) and merges the
# exponentials of a product into one)

def _expression_matrix(ito, ansatz, which):
    """The coefficient matrix of the residuals of the generic candidate
    over its unknowns, built on sympy expressions."""
    ctx, basis = ito.context, ansatz.time_basis
    x, t, m = ctx.spatial, ctx.t, ito.m
    monomials = [sp.Mul(*c) for d in range(ansatz.degree + 1)
                 for c in itertools.combinations_with_replacement(x, d)]
    pairs = (list(itertools.combinations(range(m), 2))
             if which == "w" and ansatz.include_B else [])
    width = len(basis) * (1 + len(x) * len(monomials)) + len(pairs)
    ctx = ctx.with_params({f"u{i}": None for i in range(width)})
    unknowns = [ctx.params[f"u{i}"] for i in range(width)]
    u = iter(unknowns)
    tau = sum(next(u) * b for b in basis)
    xi = [sum(next(u) * mu * b for mu in monomials for b in basis) for _ in x]
    B = [[sp.Integer(0)] * m for _ in range(m)]
    for p, q in pairs:
        B[p][q] = next(u)
        B[q][p] = -B[p][q]
    system = ItoSystem(ctx, f=ito.f, sigma=ito.sigma)
    ds = detsys_projectable(system, VectorField(
        ctx, tau=tau, xi=xi, Bmat=B if which == "w" else None))
    coefficients = []
    for r in ds.residuals():
        r = sp.expand(r)
        # one symbol per exponential: Poly would read exp(2 t) as exp(t)^2
        exps = {a: sp.Dummy() for a in r.atoms(sp.exp) if a.has(t)}
        coefficients += sp.Poly(r.xreplace(exps), *x, t,
                                *exps.values()).coeffs()
    A, _ = sp.linear_eq_to_matrix(coefficients, unknowns)
    return DomainMatrix.from_Matrix(A).convert_to(EX)


def _assert_matches_expression_path(ito, ansatz, which):
    """The solver's coefficient matrix has the rank of the expression
    matrix, and its basis has as many generators as the expression matrix
    has unknowns beyond its rank."""
    A = _expression_matrix(ito, ansatz, which)
    _, calc, columns = solve._columns(ito, ansatz, which)
    assert solve._coefficient_matrix(calc, columns).rank() == A.rank()
    assert (solve_ansatz(ito, ansatz, which).dimension
            == A.shape[1] - A.rank())


# one variable and one noise, a positive and a nonzero parameter
_EXP_CTX = Context(spatial=("x",), params={"k": "positive", "a": "nonzero"},
                   noises=("w",))


def _random_exp_system(rng, scales):
    """A random linear system over _EXP_CTX: drift p(t) x + q(t) and noise
    s(t) or s(t) x, times one of `scales`, with p, q and s drawn from a
    parameter, 1, t and +-exp(r t + d) for d in {0, -1} and a rate r in
    {c, -c, 0}, so that exponentials of the drift and the noise meet in a
    product."""
    x, t, k = _EXP_CTX.spatial[0], _EXP_CTX.t, _EXP_CTX.params["k"]
    c = rng.choice([-1, 1, -2])

    def exponential(*rates):
        r, d = rng.choice(rates), rng.choice([0, -1])
        return rng.choice([1, -1]) * sp.exp(r * t + d)
    p = rng.choice([k, exponential(c), exponential(c), exponential(c, -c)])
    q = rng.choice([0, 0, 0, 1, exponential(c, 0)])
    s = rng.choice([1, t, exponential(c, 0), exponential(c, 0)])
    return ItoSystem(_EXP_CTX, f=(p * x + q,),
                     sigma=((s * rng.choice([1, x]) * rng.choice(scales),),))


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(st.randoms(use_true_random=False))
def test_exp_ring_matrix_matches_expression_path(rng):
    """Exponentials exp(c t) and exp(c t + d) in the drift and the noise,
    with exp(+-t), exp(+-2t) in the time basis, rows merged by net rate."""
    ito = _random_exp_system(rng, [1])
    ansatz = _poly_ansatz(ito, 1, (1, 2), include_B=True)
    _assert_matches_expression_path(ito, ansatz,
                                    rng.choice(["projectable", "w"]))


@settings(max_examples=15, deadline=None, derandomize=True, database=None)
@given(st.randoms(use_true_random=False))
def test_radical_ring_matrix_matches_expression_path(rng):
    """Noise scaled by sqrt(2), by sqrt(k) of the positive parameter k, by
    both, or by sqrt(a) of the parameter a declared only nonzero (over EX),
    with exponentials in the drift and the noise."""
    k, a = _EXP_CTX.params["k"], _EXP_CTX.params["a"]
    ito = _random_exp_system(
        rng, [sp.sqrt(2), sp.sqrt(k), sp.sqrt(2) * sp.sqrt(k), sp.sqrt(a)])
    ansatz = _poly_ansatz(ito, 1, (1, 2), include_B=True)
    _assert_matches_expression_path(ito, ansatz,
                                    rng.choice(["projectable", "w"]))


@settings(max_examples=5, deadline=None, derandomize=True, database=None)
@given(st.randoms(use_true_random=False))
def test_polynomial_system_matches_expression_path(rng):
    """A random polynomial system of two variables and two noises, with
    its noise mixer."""
    ito = random_polynomial_system(rng)
    t = RING_CTX.t
    ansatz = Ansatz(degree=rng.randint(0, 1), t=t, include_B=True,
                    time_basis=default_time_basis(
                        t, rng.sample([1, -1, 2], rng.randint(1, 2))))
    _assert_matches_expression_path(ito, ansatz, "w")


def test_exp_ring_merges_exponentials_by_net_rate():
    """exp(t) exp(-t) x in one term lies in the ring, in the row of x: the
    rows are keyed by net rate, and its difference from x cancels."""
    ctx = RING_CTX
    t, (x, _) = ctx.t, ctx.spatial
    two = sp.Mul(sp.exp(t), sp.exp(-t), x, evaluate=False)
    calc, columns = solve._in_exp_ring(
        ctx.ring.symbols, ctx.spatial, t,
        [(two,), (x,), (sp.Add(two, -x, evaluate=False),)],
        solve.OutsideAnsatzError)
    assert len(calc.rates) == 2 and calc.ring.domain.is_QQ
    M = solve._coefficient_matrix(calc, columns)
    assert M.to_Matrix() == sp.Matrix([[1, 1, 0]])


@pytest.mark.parametrize("drift,noise,which", [
    ("x*exp(-t)", "exp(-t)", "projectable"), ("x*exp(-t)", "exp(-t)", "w"),
    ("x*exp(-t)", "x*exp(-t)", "w"), ("exp(-t)", "exp(-t)", "projectable"),
    ("x*exp(t)", "exp(t)", "w"), ("x*exp(-t)", "1", "w"),
    ("x*exp(-t - 1)", "exp(-t)", "projectable")])
def test_exponential_system_matches_expression_path(drift, noise, which):
    """The columns multiply the drift and the noise by the candidate, so an
    exponential of the system meets the basis's in one term, exp(2 t)
    exp(-t) = exp(t) among them: solved with exp(+-t), exp(+-2t) in the
    basis, such a system stays in the ring, over QQ unless an exponential
    carries a constant shift."""
    ctx = Context(spatial=("x",), noises=("w",))
    ito = ItoSystem(ctx, f=(parse_expr(drift, ctx),),
                    sigma=((parse_expr(noise, ctx),),))
    ansatz = _poly_ansatz(ito, 1, (1, 2), include_B=which == "w")
    _, calc, _ = solve._columns(ito, ansatz, which)
    assert calc.ring.domain.is_EX == ("- 1" in drift)
    _assert_matches_expression_path(ito, ansatz, which)
    if (drift, noise, which) == ("x*exp(-t)", "exp(-t)", "projectable"):
        assert (_dsl(solve_ansatz(ito, ansatz, which))
                == [["exp(2*t) - 2*exp(t)", "x*exp(t)"]])


# a rate or a shift outside QQ[params] puts the entries over EX
_OVER_EX = {"exp(t + 1)": (1, sp.E), "exp(sqrt(2)*t)": (sp.sqrt(2), 1),
            "exp(t/k)": (1 / RING_CTX.params["k"], 1)}


@pytest.mark.parametrize("entry", ["exp(x*t)", "exp(t**2)", "exp(t + 1)",
                                   "exp(sqrt(2)*t)", "exp(t/k)",
                                   "cos(t)*exp(t)"])
def test_exp_ring_fallback(entry):
    """exp(c t + d) with c and d free of x and t but outside QQ[params]
    leaves the ring over QQ for EX[x, t, E_c], as exp(d) E_c; any other
    exponential or function lies outside both, and the error names the
    input entry."""
    ctx = RING_CTX
    x, t = ctx.spatial[0], ctx.t
    e = sp.sympify(entry, locals={"x": x, "t": t, "k": ctx.params["k"]})
    if entry not in _OVER_EX:
        with pytest.raises(solve.OutsideAnsatzError,
                           match=rf"^{re.escape(str(e))} is not polynomial"):
            solve._in_exp_ring(ctx.ring.symbols, ctx.spatial, t,
                               [(x,), (e,)], solve.OutsideAnsatzError)
        return
    calc, ((p,),) = solve._in_exp_ring(ctx.ring.symbols, ctx.spatial, t,
                                       [(e,)], solve.OutsideAnsatzError)
    rate, shift = _OVER_EX[entry]
    K = calc.ring.domain
    assert K.is_EX and calc.ring.symbols[:3] == (*ctx.spatial, t)
    (_, c), = calc.rates
    assert c == calc.ring.ground_new(K.from_sympy(rate))
    assert p == calc.ring.ground_new(K.from_sympy(shift)) * calc.ring.gens[3]


def test_exp_ring_derivation():
    """d/dt (t^2 exp(k t)) = 2 t exp(k t) + k t^2 exp(k t)."""
    ctx = RING_CTX
    t, k = ctx.t, ctx.params["k"]
    calc, ((p,),) = solve._in_exp_ring(ctx.ring.symbols, ctx.spatial, t,
                                       [(t**2 * sp.exp(k * t),)],
                                       solve.OutsideAnsatzError)
    _, ((want,),) = solve._in_exp_ring(
        ctx.ring.symbols, ctx.spatial, t,
        [((2 * t + k * t**2) * sp.exp(k * t),)], solve.OutsideAnsatzError)
    assert calc.d(p, calc.t) == want


# ---------------------------------------------------------------------------
# radicals: sqrt of a positive parameter as a generator q with p = q^2,
# sqrt of a rational as an algebraic coefficient

def _amplitude_system():
    """langevin2 with its noise amplitudes r_i = sqrt(2 s_i) as parameters
    of QQ[r] and no radical."""
    ctx = Context(spatial=("x1", "x2"), params=("r1", "r2"),
                  noises=("w1", "w2"))
    (x1, x2), r = ctx.spatial, ctx.params
    return ItoSystem(ctx, f=(-x1, -x2),
                     sigma=((r["r1"], 0), (0, r["r2"])))


class TestRadicals:
    @pytest.mark.parametrize("name", ["kramers.sde", "langevin2.sde",
                                      "langevin4.sde"])
    def test_common_radical_solves_over_qq(self, systems, name):
        """sqrt(2) is scaled out of sigma: the matrix is eliminated over
        QQ(params, q), with no algebraic coefficient."""
        ito = systems[name]
        _, calc, columns = solve._columns(
            ito, _poly_ansatz(ito, 1, (1,), include_B=True), "w")
        K = solve._coefficient_matrix(calc, columns).domain
        assert K.is_FractionField and K.domain.is_QQ

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
        """sqrt of a parameter declared only nonzero puts the system over
        EX; sqrt of a polynomial lies outside the ansatz, and the error
        names the input entry."""
        ctx = Context(spatial=("x",), params={"a": "nonzero"}, noises=("w",))
        x = ctx.spatial[0]
        ito = ItoSystem(ctx, f=(-x,), sigma=((parse_expr(sigma, ctx),),))
        ansatz = _poly_ansatz(ito, 1, (1,))
        if isinstance(expected, list):
            _, calc, _ = solve._columns(ito, ansatz, "projectable")
            assert calc.ring.domain.is_EX
            assert _dsl(solve_ansatz(ito, ansatz)) == expected
        else:
            with pytest.raises(expected, match=r"^sqrt\(x\*\*2 \+ 1\) is "
                               "not polynomial"):
                solve_ansatz(ito, ansatz)

    def test_parameter_radical_in_a_rate(self, systems):
        """A rate meets a reparametrized parameter: exp(s1 t) becomes
        exp(q^2 t) with q = sqrt(s1) a generator, in the domain of the
        engine of langevin2, whose sigma_0 = sigma / sqrt(2) holds q."""
        lan = systems["langevin2.sde"]
        s1 = lan.context.params["s1"]
        c, _ = lan._of([(sp.exp(s1 * lan.context.t),)])
        calc = c.calc
        q = _generator("q_s1", True)
        assert q in calc.ring.symbols and s1 not in calc.ring.symbols
        (_, rate), = calc.rates
        assert rate == calc.ring(q**2)
