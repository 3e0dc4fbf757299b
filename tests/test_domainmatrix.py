"""The sympy API that the solver's exact elimination relies on
(stosym.solve._coefficient_matrix and _rref_rows): parallel_poly_from_expr
choosing one coefficient domain for many expressions, Poly.as_dict(native=True),
the dict-of-dicts DomainMatrix constructor, to_field, rref() returning the
pivots with the nonzero sparse rows in R.rep, and domain.to_sympy. These pin
it at every sympy version the project supports, so that an API change fails
here first."""
import pytest
import sympy as sp
from sympy.polys.matrices import DomainMatrix

X = sp.Symbol("x")
A = sp.Symbol("a", positive=True)
R2A = sp.sqrt(2) * sp.sqrt(A)


def _field_matrix(rows):
    """Domain and sparse field DomainMatrix of `rows`, lists of constants
    read as polynomials in x the way the solver reads its entries."""
    width = len(rows[0])
    polys, opt = sp.parallel_poly_from_expr(
        [sp.sympify(e) for row in rows for e in row], X)
    dod = {}
    for k, p in enumerate(polys):
        for (deg,), c in p.as_dict(native=True).items():
            assert deg == 0
            dod.setdefault(k // width, {})[k % width] = c
    return opt.domain, DomainMatrix(dod, (len(rows), width), opt.domain).to_field()


@pytest.mark.parametrize("rows,kind,pivots,rref", [
    ([[1, 2, 3], [2, 4, 7], [0, 0, 0]], "is_ZZ", (0, 2),
     [{0: 1, 1: 2}, {2: 1}]),
    ([[A, 1], [A**2, A]], "is_PolynomialRing", (0,),
     [{0: 1, 1: 1 / A}]),
    ([[R2A, 1, 0], [2 * A, R2A, 0], [0, 0, A]], "is_EX", (0, 2),
     [{0: 1, 1: 1 / R2A}, {2: 1}]),
], ids=["rational", "parameter", "radical"])
def test_rref_over_the_coefficient_field(rows, kind, pivots, rref):
    domain, M = _field_matrix(rows)
    assert getattr(domain, kind)
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


def test_rref_of_an_empty_system():
    """A system whose entries all vanish has no rows and no pivots."""
    M = DomainMatrix({}, (0, 3), sp.QQ).to_field()
    R, pivots = M.rref()
    assert tuple(pivots) == ()
    assert dict(R.rep) == {}
