"""The behaviour of sympy.polys.rings that stosym relies on: the one way
into a given ring (stosym.kernel._ring_element, used by the exact domain's
conversion `_convert` and by kpz_ito), the exact domain over an input's
own symbols (`_exact`, used by normalize and zero_verdict), and the ring
operations of the engine (stosym.model._Ring). These pin it at every sympy
version the project supports, so that an API change fails here first."""
from unittest import mock

import pytest
import sympy as sp
from hypothesis import given, settings, strategies as st
from sympy.core.cache import clear_cache
from sympy.core.function import AppliedUndef
from sympy.polys.domains import QQ
from sympy.polys.rings import PolyRing

import stosym.kernel as kernel
from stosym.kernel import (Context, _exact, _normalize_loop, _own_ring,
                           _ring_element, normalize)
from conftest import RING_CTX, random_expression

CTX = Context(spatial=("x", "y"), params={"a": "positive"}, opaque=("g",))
A, X, Y, T = CTX.symbol("a"), *CTX.spatial, CTX.t
# generators sorted by name, as the engine and the exact domain use them
RING = PolyRing([A, T, X, Y], QQ)


def _from_expr(e, ring):
    """What from_expr makes of e, or None where it raises; a float never
    enters the ring, since QQ would turn 0.5 into 1/2."""
    if e.has(sp.Float):
        return None
    try:
        return ring.from_expr(e)
    except ValueError:
        return None


def _assert_agrees(e):
    """_ring_element agrees with from_expr in the context ring. The exact
    domain over e's own symbols sorted by name gives from_expr's element
    in the ring over them, as an expression; where from_expr refuses e, it
    refuses a float or an opaque function and gives the loop's normal form
    of anything else it takes."""
    got, expected = _ring_element(e, RING), _from_expr(e, RING)
    assert (got is None) == (expected is None), e
    assert got is None or got == expected, e
    own = sorted(e.free_symbols, key=lambda s: s.name)
    got, expected = _exact(e), _from_expr(e, PolyRing(own, QQ))
    if expected is not None:
        assert got == expected.as_expr(), e
    elif e.has(sp.Float, AppliedUndef, sp.Derivative):
        assert got is None, e
    else:
        assert got is None or got == _normalize_loop(e), e


@pytest.mark.parametrize("expr", [
    sp.sqrt(2) * X, sp.Float(0.5) * X, X / A, sp.pi * T, sp.I * T, sp.E * T,
    CTX.opaque["g"](X), sp.Derivative(CTX.opaque["g"](X), X), sp.sqrt(X**2),
    sp.Symbol("z") * X, sp.Rational(-5, 3), (X + A * Y)**3 - T],
    ids=["sqrt2", "float", "denominator", "pi", "I", "E", "opaque",
         "derivative", "abs", "foreign_symbol", "constant", "polynomial"])
def test_ring_element_agrees_with_from_expr(expr):
    _assert_agrees(expr)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.randoms(use_true_random=False), st.booleans())
def test_ring_element_agrees_on_random_expressions(rng, functions):
    _assert_agrees(random_expression(rng, CTX, depth=rng.randint(1, 4),
                                     functions=functions))


@pytest.mark.parametrize("expr", [
    sp.sqrt(2) * X, sp.sqrt(3 + 2 * sp.sqrt(2)) * X, sp.exp(T), X / A,
    CTX.opaque["g"](X)],
    ids=["sqrt2", "nested_radical", "exp", "denominator", "opaque"])
def test_from_expr_rejects_non_polynomials(expr):
    with pytest.raises(ValueError):
        RING.from_expr(expr)


def test_diff_by_generator_index():
    p = RING.from_expr(A * X**2 * Y + T)
    assert p.diff(2) == RING.from_expr(2 * A * X * Y)
    assert p.diff(1) == RING.one


def test_compose_substitutes_simultaneously():
    _, _, x, y = RING.gens
    p = RING.from_expr(X**2 * Y)
    assert p.compose([(x, y), (y, x)]) == RING.from_expr(X * Y**2)


@pytest.mark.parametrize("expr", [
    (X + A * Y) ** 2 / 3 - T, sp.Rational(-5, 2), X * Y - Y * X],
    ids=["polynomial", "constant", "zero"])
def test_as_expr_equals_normalize(expr):
    assert RING.from_expr(expr).as_expr() == normalize(expr)


def test_arithmetic_on_generators():
    """What kpz_ito asks of the context's ring: its generators, read by
    zipping symbols with gens, one and zero, and +, -, * and ** on them and
    on Python ints, which give what from_expr gives; and what the engine's
    calculus (stosym.model._Exprs.dot, second_order) asks of an element: a
    zero, ground_new(0) included, is falsy and any other element truthy."""
    gens = dict(zip(RING.symbols, RING.gens))
    a, t, x, y = (gens[s] for s in (A, T, X, Y))
    p = a * (x - 2 * y + x) + t * (x - y) ** 2
    assert p == RING.from_expr(A * (2 * X - 2 * Y) + T * (X - Y) ** 2)
    assert (RING.one * 1, RING.zero + 0) == (RING.from_expr(sp.Integer(1)),
                                             RING.from_expr(sp.Integer(0)))
    assert not RING.zero and not RING.ground_new(QQ(0)) and not p - p
    assert RING.one and p and RING.ground_new(QQ(-1, 2))


def test_linear_map_from_generators():
    """What kpz_check_discrete asks of the context's ring to form y = F x
    from F's nonzero entries: a generator times the QQ element of a sympy
    Rational, -1 included, summed from zero, gives what from_expr gives;
    and what model.DiscreteMap asks of the result: its ring, compared with
    ==, and its expression."""
    gens = dict(zip(RING.symbols, RING.gens))
    row = (sp.Rational(3, 5), sp.Integer(-1))
    phi = sum((v * QQ(e.p, e.q) for e, v in zip(row, (gens[X], gens[Y]))),
              RING.zero)
    assert phi == RING.from_expr(3 * X / 5 - Y)
    assert phi.ring == RING and PolyRing([A, T, X], QQ) != RING
    assert phi.as_expr() == normalize(3 * X / 5 - Y)


def test_sparse_engine_calls():
    """What the engine's sparse paths ask of a ring over QQ: itermonoms()
    and items() give each term's exponent tuple, zipped into the
    generators an element holds (model._Ring.gradient and d); a
    monomial's single term names its generator (model._Ring.substitution);
    from_dict builds an element from exponent tuples and coefficients and
    drops a zero; is_ground tells a constant, 0 included; and a zero,
    ground_new(0) included, is falsy, so the converted zeros of R and
    sigma are skipped (model._nonzero_rows)."""
    p = RING.from_expr(3 * A**2 * X / 4 - T)
    assert sorted(p.itermonoms()) == sorted(m for m, _ in p.items())
    assert [any(k) for k in zip(*p.itermonoms())] == [True, True, True,
                                                      False]
    (monom, c), = (-2 * RING.gens[3]).items()
    assert (monom, monom.index(1), c) == ((0, 0, 0, 1), 3, QQ(-2))
    assert RING.from_dict(dict(p.items())) == p
    assert RING.from_dict({(0, 0, 1, 0): QQ(2, 3), (1, 0, 0, 0): QQ(0)}) == (
        RING.from_expr(2 * X / 3))
    assert RING.zero.is_ground and RING.ground_new(QQ(5)).is_ground
    assert not p.is_ground and not RING.gens[0].is_ground
    assert not RING.ground_new(QQ(0)) and not RING.ground_new(0)


# maps of (x, y) as functions of the generators (c, k, t, x, y) of RING_CTX
_MONOMIAL_MAPS = {
    "identity": lambda c, k, t, x, y: (x, y),
    "swap": lambda c, k, t, x, y: (y, x),
    "signed_swap": lambda c, k, t, x, y: (-y, x),
    "negation": lambda c, k, t, x, y: (-x, -y),
    "not_injective": lambda c, k, t, x, y: (y, -y),
    "scaled": lambda c, k, t, x, y: (QQ(2, 3) * y, QQ(-3, 2) * x),
    "onto_a_parameter": lambda c, k, t, x, y: (k, QQ(2, 3) * x),
}
_OTHER_MAPS = {
    "sum": lambda c, k, t, x, y: (x + y, x),
    "product": lambda c, k, t, x, y: (x * y, y),
    "constant": lambda c, k, t, x, y: (x.ring.one, y),
}


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.randoms(use_true_random=False),
       st.sampled_from(sorted({**_MONOMIAL_MAPS, **_OTHER_MAPS})))
def test_index_map_substitution_agrees_with_compose(rng, name):
    """model._Ring.substitution of a monomial map x^i -> c_i g_pi(i)
    rewrites exponents and coefficients without compose, and gives what
    PolyElement.compose gives; any other map takes compose."""
    from stosym.model import _Ring
    ring = RING_CTX.ring
    calc = _Ring(ring, RING_CTX.spatial, RING_CTX.t)
    phi = {**_MONOMIAL_MAPS, **_OTHER_MAPS}[name](*ring.gens)
    pairs = [(ring.gens[i], p) for i, p in zip(calc.x, phi)]
    e = _ring_element(random_expression(rng, RING_CTX, depth=3,
                                        functions=False), ring)
    compose, calls = type(e).compose, []

    def spy(self, *args):
        calls.append(self)
        return compose(self, *args)
    with mock.patch.object(type(e), "compose", spy):
        got = calc.substitution(calc.x, phi)(e)
    assert got == compose(e, pairs)
    assert got.ring is ring
    assert len(calls) == (0 if name in _MONOMIAL_MAPS or e.is_ground
                          else 1)


def test_from_expr_of_a_vanishing_polynomial_is_zero():
    # kernel.zero_verdict reads ZERO from this without normalizing first
    assert RING.from_expr((X + A * Y) ** 2 - X**2 - 2 * A * X * Y
                          - A**2 * Y**2) == 0


def test_own_rings_are_shared():
    """Conversions into the exact domain over the same own symbols land in
    one ring rather than building a new one each time."""
    rings, convert = [], kernel._convert

    def spy(calc, groups):
        rings.append(calc.ring)
        return convert(calc, groups)
    clear_cache()
    with mock.patch.object(kernel, "_convert", spy):
        for e in (X * Y + A, A - X**2 * Y / 3, X + Y):
            _exact(e)
    assert rings[0] is rings[1] is _own_ring((A, X, Y))
    assert rings[2] is not rings[0]


def test_domain_calls():
    """What the exact domain (stosym.kernel._Domain) asks of a ring over
    QQ: (monomial, coefficient) pairs from items(), a coefficient times a
    Python int, hashed in a frozenset and mapped back by to_sympy, and a
    ring with no generators for a constant."""
    p = RING.from_expr(3 * A**2 * X / 4 - T)
    terms = dict(p.items())
    assert terms[(2, 0, 1, 0)] * 2 == QQ(3, 2)
    assert frozenset(terms.items()) == frozenset(p.items())
    assert RING.domain.to_sympy(terms[(2, 0, 1, 0)]) == sp.Rational(3, 4)
    empty = PolyRing((), QQ)
    assert empty.ground_new(QQ(3, 2)).as_expr() == sp.Rational(3, 2)
    assert sp.factorint(30) == {2: 1, 3: 1, 5: 1}


@pytest.mark.parametrize("expr, expected", [
    (X / A**2 + sp.sqrt(A) * Y, X / A**2 + sp.sqrt(A) * Y),
    (sp.sqrt(2) * (sp.sqrt(3) * X + 1) - sp.sqrt(6) * X - sp.sqrt(2), 0),
    (sp.exp(A * T) * sp.exp((2 - A) * T), sp.exp(2 * T)),
    (sp.sqrt(6) - 1, sp.sqrt(6) - 1)],
    ids=["laurent", "radicals", "net_rate", "constant"])
def test_domain_round_trip(expr, expected):
    """Into the exact domain over the input's symbols and out again."""
    assert _exact(expr) == expected
