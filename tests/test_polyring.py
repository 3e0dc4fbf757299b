"""The behaviour of sympy.polys.rings that the determining-equation engine
relies on (see stosym.model._Ring). These pin it at every sympy version
the project supports, so that an API change fails here first."""
import pytest
import sympy as sp
from sympy.polys.domains import QQ
from sympy.polys.rings import PolyRing

from stosym.kernel import Context, normalize

CTX = Context(spatial=("x", "y"), params={"a": "positive"}, opaque=("g",))
A, X, Y, T = CTX.symbol("a"), *CTX.spatial, CTX.t
# generators sorted by name, as the engine and normalize's polynomial path use them
RING = PolyRing([A, T, X, Y], QQ)


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
