"""The behaviour of sympy.polys.rings that stosym relies on: the one way
into a ring (stosym.kernel._ring_element, used by normalize, zero_verdict,
ItoSystem and the determining-equation engine) and the ring operations of
the engine (stosym.model._Ring). These pin it at every sympy version the
project supports, so that an API change fails here first."""
import pytest
import sympy as sp
from hypothesis import given, settings, strategies as st
from sympy.polys.domains import QQ
from sympy.polys.rings import PolyRing

from stosym.kernel import Context, _ring_element, normalize
from conftest import random_expression

CTX = Context(spatial=("x", "y"), params={"a": "positive"}, opaque=("g",))
A, X, Y, T = CTX.symbol("a"), *CTX.spatial, CTX.t
# generators sorted by name, as the engine and normalize's polynomial path use them
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
    """_ring_element agrees with from_expr, both in the context ring and in
    the ring over e's own symbols sorted by name."""
    own = sorted(e.free_symbols, key=lambda s: s.name)
    for ring, expected in ((RING, _from_expr(e, RING)),
                           (None, _from_expr(e, PolyRing(own, QQ)) if own else None)):
        got = _ring_element(e, ring)
        assert (got is None) == (expected is None), (e, ring)
        assert got is None or got == expected, (e, ring)


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


def test_from_expr_of_a_vanishing_polynomial_is_zero():
    # kernel.zero_verdict reads ZERO from this without normalizing first
    assert RING.from_expr((X + A * Y) ** 2 - X**2 - 2 * A * X * Y
                          - A**2 * Y**2) == 0


def test_own_rings_are_shared():
    """Conversions over the same symbols, without a given ring, land in
    one ring rather than building a new one each time."""
    p, q = _ring_element(X * Y + A), _ring_element(A - X**2 * Y / 3)
    assert p.ring is q.ring
    assert _ring_element(X + Y).ring is not p.ring
