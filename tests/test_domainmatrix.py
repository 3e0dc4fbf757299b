"""The sympy API that the solver's exact elimination relies on
(stosym.solve._in_exp_ring, _coefficient_matrix and _rref_rows). Over QQ:
PolyElement.terms(), items() and new(), and elements of
QQ.frac_field(*params) built from a numerator's terms. Over EX:
parallel_poly_from_expr(..., domain=EX), Poly.as_dict(native=True),
PolyRing(gens, EX) with from_dict, ground_new and diff. On both: the
dict-of-dicts DomainMatrix constructor, rref() returning the pivots with
the nonzero sparse rows in R.rep, and domain.to_sympy. These pin it at
every sympy version the project supports, so that an API change fails
here first."""
import random

import pytest
import sympy as sp
from sympy.polys.domains import EX, QQ
from sympy.polys.matrices import DomainMatrix
from sympy.polys.rings import PolyRing

from stosym.solve import _field_element

X = sp.Symbol("x")
A = sp.Symbol("a", positive=True)
R2A = sp.sqrt(2) * sp.sqrt(A)


def _ex_matrix(rows):
    """Sparse DomainMatrix over EX of `rows`, lists of constants read as
    polynomials in x over EX the way the solver reads its entries."""
    width = len(rows[0])
    polys, opt = sp.parallel_poly_from_expr(
        [sp.sympify(e) for row in rows for e in row], X, domain=EX)
    assert opt.domain.is_EX
    dod = {}
    for k, p in enumerate(polys):
        for (deg,), c in p.as_dict(native=True).items():
            assert deg == 0
            dod.setdefault(k // width, {})[k % width] = c
    return DomainMatrix(dod, (len(rows), width), EX)


@pytest.mark.parametrize("rows,pivots,rref", [
    ([[1, 2, 3], [2, 4, 7], [0, 0, 0]], (0, 2), [{0: 1, 1: 2}, {2: 1}]),
    ([[A, 1], [A**2, A]], (0,), [{0: 1, 1: 1 / A}]),
    ([[R2A, 1, 0], [2 * A, R2A, 0], [0, 0, A]], (0, 2),
     [{0: 1, 1: 1 / R2A}, {2: 1}]),
], ids=["rational", "parameter", "radical"])
def test_rref_over_the_coefficient_field(rows, pivots, rref):
    """rref over EX, where every step cancels: dependent rows vanish."""
    M = _ex_matrix(rows)
    K = M.domain
    assert K.is_Field
    R, got = M.rref()
    assert tuple(got) == pivots
    assert sorted(R.rep) == list(range(len(pivots)))
    for i, want in enumerate(rref):
        row = R.rep[i]
        assert sorted(row) == sorted(want)
        for j, v in want.items():
            assert sp.simplify(K.to_sympy(row[j]) - v) == 0


def test_ex_ring_from_parallel_polys():
    """PolyRing(gens, EX) holds parallel_poly_from_expr(..., domain=EX)
    through from_dict; ground_new of an EX element, a rational constant,
    diff by generator index and products stay exact."""
    t, E = sp.Symbol("t"), sp.Dummy("E")
    ring = PolyRing((X, t, E), EX)
    (p, q), _ = sp.parallel_poly_from_expr(
        [X * sp.exp(-1) * E + R2A * t**2, sp.sqrt(A) * X], X, t, E, domain=EX)
    p, q = (ring.from_dict(e.as_dict(native=True)) for e in (p, q))
    assert p.diff(1) == ring.from_dict({(0, 1, 0): EX.from_sympy(2 * R2A)})
    c = ring.ground_new(EX.from_sympy(sp.sqrt(2)))
    assert q * q * c == ring.from_dict({(2, 0, 0): EX.from_sympy(A * sp.sqrt(2))})
    assert ring(QQ(1, 2)) * 2 == ring.one
    assert EX.to_sympy(dict(p)[(1, 0, 1)]) == sp.exp(-1)


def test_rref_of_an_empty_system():
    """A system whose entries all vanish has no rows and no pivots."""
    M = DomainMatrix({}, (0, 3), QQ)
    R, pivots = M.rref()
    assert tuple(pivots) == ()
    assert dict(R.rep) == {}


def test_ring_terms_lift_and_euler_operator():
    """terms() lists (monomial, coefficient) pairs; padding the monomials
    lifts an element into a ring with one more generator E, and
    new({m: c * m[E]}) is E d/dE of an element."""
    E = sp.Dummy("E")
    small, big = PolyRing((A, X), QQ), PolyRing((A, X, E), QQ)
    p = small.from_expr(A * X**2 / 2 + 3)
    assert sorted(p.terms()) == [((0, 0), QQ(3)), ((1, 2), QQ(1, 2))]
    lifted = big.dtype({m + (0,): c for m, c in p.items()})
    assert lifted == big.from_expr(A * X**2 / 2 + 3)
    assert lifted.diff(1) == big.from_expr(A * X)
    q = big.from_expr(X * E**2 + 5 * E + A)
    euler = q.new({m: c * m[2] for m, c in q.items() if m[2]})
    assert euler == big.from_expr(2 * X * E**2 + 5 * E)


def test_fraction_field_elements_are_canonical():
    """An element of QQ(a, b) built from a numerator's terms has the form
    that the field's own arithmetic gives it (integer numerator
    coefficients over a positive integer), so equal elements compare
    equal."""
    B = sp.Symbol("b")
    field = QQ.frac_field(A, B).field
    rng = random.Random(0)
    for _ in range(200):
        terms = {(rng.randint(0, 2), rng.randint(0, 2)):
                 QQ(rng.choice([-3, -1, 1, 2, 7]), rng.randint(1, 6))
                 for _ in range(rng.randint(1, 4))}
        got = _field_element(field, terms)
        want = field.new(field.ring.dtype(terms))
        assert (got.numer, got.denom) == (want.numer, want.denom)
        assert got - want == field.zero


def test_rref_over_a_parameter_fraction_field():
    """The dict-of-dicts constructor over QQ.frac_field(a) and its RREF,
    from elements built off their numerators' terms."""
    K = QQ.frac_field(A)
    field = K.field

    def el(*coeffs):
        return _field_element(field, {(k,): QQ(c) for k, c in
                                      enumerate(coeffs) if c})
    M = DomainMatrix({0: {0: el(0, 1), 1: el(1)},
                      1: {0: el(0, 0, 1), 1: el(0, 1)},
                      2: {2: el(QQ(1, 2))}}, (3, 3), K)
    R, pivots = M.rref()
    assert tuple(pivots) == (0, 2)
    assert [sorted(R.rep[i]) for i in sorted(R.rep)] == [[0, 1], [2]]
    assert K.to_sympy(R.rep[0][1]) == 1 / A
    assert K.to_sympy(R.rep[1][2]) == 1
