"""Symmetry search by bounded ansatz: xi polynomial in x with coefficients
over a finite time-function basis closed under d/dt, tau over the same
basis. Coefficient matching turns the determining systems into an exact
homogeneous linear problem, eliminated by one sparse row reduction over
the fraction field of the parameters. The determining operator is linear
in the candidate, so the coefficient matrix is built column by column, one
ansatz basis element at a time, in one ring, and read off the terms of its
elements. Each exp(c t + d) of the system or the basis is exp(d) E_c, one
generator E_c per rate c with d/dt E_c = c E_c, and a row of the matrix is
an entry, an x-t monomial and a net rate. The ring is
- the exact domain of `kernel._convert` (QQ[q, params, x, t, E_1..E_k],
  q = sqrt(p) of a positive parameter p) without its inverses and integer
  radicals when every entry lies in it, with sigma's common radical scaled
  out (`_common_radical`);
- EX[x, t, E_1..E_k] otherwise.
Input outside both lies outside the ansatz."""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import partial

import sympy as sp
from sympy.polys.domains import EX
from sympy.polys.matrices import DomainMatrix
from sympy.polys.rings import PolyRing
from sympy.utilities.iterables import sift

from .kernel import (InconclusiveError, Verdict, _convert, _exp_split,
                     _generator, _own_ring)
from .model import ItoSystem, VectorField, _Coefficients, _Ring, lie_bracket
from .detgen import _lambda_gamma_of, detsys_projectable
from .verify import OverallVerdict, check

__all__ = [
    "Ansatz", "SymmetryBasis", "StructuralFact", "NonClosedBasisError",
    "NonlinearEntanglementError", "OutsideAnsatzError", "default_time_basis",
    "solve_ansatz",
    "xi_second_derivative_constraint", "commutator_closure",
]


class NonClosedBasisError(ValueError):
    """The time basis is not closed under d/dt."""


class NonlinearEntanglementError(ValueError):
    """The determining equations do not reduce to a homogeneous linear
    system over the ansatz, or a solution of it fails re-verification."""


class OutsideAnsatzError(NonlinearEntanglementError):
    """A residual is not polynomial over the ansatz monomials: the system
    depends on x or t in a way the ansatz cannot match."""


def default_time_basis(t, rates=()):
    """{1, t, t^2} plus e^{ct}, e^{-ct}, t e^{ct} for each declared rate c."""
    basis = [sp.Integer(1), t, t**2]
    for c in rates:
        basis += [sp.exp(c * t), sp.exp(-c * t), t * sp.exp(c * t)]
    return tuple(basis)


# --- linear decomposition over {x^a * t^b * exp(r t)} monomials ---

def _in_exp_ring(symbols, x, t, groups, error):
    """The calculus of the ansatz ring, and the entry groups (sequences of
    expressions) as its elements: the exact domain over `symbols` without
    the generators bound by a relation, which would be free symbols in the
    coefficient field, else EX[x, t, E_1..E_k]. Raises `error` naming the
    first entry outside."""
    return (_convert(_Ring(_own_ring(tuple(symbols)), x, t), groups,
                     relations=False)
            or _over_expressions(x, t, groups, error))


def _over_expressions(x, t, groups, error):
    """`_in_exp_ring` over EX: each exp(c t + d) with c, d free of x and t
    is exp(d) E_c, one generator E_c per rate c."""
    entries = [sp.sympify(e) for g in groups for e in g]
    exps = sorted(set().union(*(e.atoms(sp.exp) for e in entries)),
                  key=sp.default_sort_key)
    rates, sub = {}, {}
    for a in exps:
        split = _exp_split(a, x, t)
        if split is not None:
            E = rates.setdefault(split[0], _generator(f"E{len(rates) + 1}"))
            sub[a] = sp.exp(split[1]) * E
    gens = (*x, t, *rates.values())
    replaced = [e.xreplace(sub) for e in entries]
    try:
        polys, _ = sp.parallel_poly_from_expr(replaced, *gens, domain=EX)
    except sp.PolynomialError as exc:
        # name the first offending entry, on this error path only
        for e, r in zip(entries, replaced):
            try:
                sp.Poly(r, *gens, domain=EX)
            except sp.PolynomialError:
                raise error(f"{e} is not polynomial over the ansatz "
                            "monomials (x, t and exponentials)") from exc
        raise
    ring = PolyRing(gens, EX)
    rates = [ring.ground_new(EX.from_sympy(c)) for c in rates]
    it = iter(ring.from_dict(p.as_dict(native=True)) for p in polys)
    return _Ring(ring, x, t, rates), [[next(it) for _ in g] for g in groups]


def _coefficient_matrix(calc, columns):
    """Sparse DomainMatrix over a field whose column j holds the coordinates
    of `columns[j]`, sequences of elements of calc.ring from
    `_in_exp_ring`. A monomial's row is its entry, its x-t exponents and
    its net rate sum_k m_k c_k of E_1^m_1..E_k^m_k: E_k -> exp(c_k t) is a
    ring homomorphism that commutes with d/dt, and t^b x^a exp(r t) of
    distinct (a, b, r) are linearly independent. The rest of the monomial
    is its coefficient in QQ(params), over the parameters that occur, or
    in EX."""
    ring = calc.ring
    symbols, rates = ring.symbols, calc.rates
    xt, es = (*calc.x, calc.t), [k for k, _ in rates]
    rest = set(range(len(symbols))) - set(xt) - set(es)
    entries = [e for col in columns for e in col]
    split = sorted({i for e in entries for m in e for i in rest if m[i]})
    K = ring.domain
    keys = [(j, r) for j, col in enumerate(columns) for r in range(len(col))]
    nets, rows = {}, {}
    for (j, r), e in zip(keys, entries):
        for monom, c in e.items():
            power = tuple(monom[k] for k in es)
            net = nets.get(power)
            if net is None:
                net = nets[power] = ring.add(
                    *(m * c_k for m, (_, c_k) in zip(power, rates) if m))
            row = rows.setdefault((r, tuple(monom[i] for i in xt), net), {})
            terms = row.setdefault(j, {})
            key = tuple(monom[i] for i in split)
            # E_c E_-c = 1: terms of one row may cancel
            terms[key] = terms[key] + c if key in terms else c
    if split:
        K = K.frac_field(*(symbols[i] for i in split))
        element = partial(_field_element, K.field)
    else:
        element = lambda terms: terms[()]
    matrix = []
    for key in sorted(rows, key=lambda key: key[:2]):
        row = {}
        for j, terms in rows[key].items():
            terms = {m: v for m, v in terms.items() if v}
            if terms:
                row[j] = element(terms)
        if row:
            matrix.append(row)
    return DomainMatrix(dict(enumerate(matrix)), (len(matrix), len(columns)),
                        K)


def _field_element(field, terms):
    """The element of `field`, a field of fractions over QQ, with numerator
    `terms` ({monomial: coefficient}) and denominator 1, in the form its
    own arithmetic gives: integer numerator coefficients over a positive
    integer denominator."""
    numer = field.ring.dtype(terms)
    if all(c.denominator == 1 for c in terms.values()):
        return field.raw_new(numer)
    den, numer = numer.clear_denoms()
    return field.raw_new(numer, field.ring.ground_new(den))


def _rref_rows(M):
    """Pivot columns and rows {column: element} of the RREF of M, in pivot
    order."""
    R, pivots = M.rref()
    return pivots, [R.rep[i] for i in sorted(R.rep)]


def _coordinates(columns, target, ctx):
    """Coefficients expressing `target` in the span of `columns` (sequences
    of expressions of equal length, in the context `ctx`), or None when it
    lies outside. Free coordinates are pinned to zero."""
    calc, entries = _in_exp_ring(ctx.ring.symbols, ctx.spatial, ctx.t,
                                 [*columns, target], OutsideAnsatzError)
    M, k = _coefficient_matrix(calc, entries), len(columns)
    pivots, rows = _rref_rows(M)
    if k in pivots:
        return None
    coords = [sp.Integer(0)] * k
    for p, row in zip(pivots, rows):
        coords[p] = M.domain.to_sympy(row.get(k, M.domain.zero)).xreplace(
            calc.back)
    return tuple(coords)


@dataclass(frozen=True)
class Ansatz:
    """Search space: xi of max total degree `degree` in x, with tau and all
    polynomial coefficients drawn from `time_basis` (validated to be closed
    under d/dt at construction; linearly dependent elements are dropped,
    the first occurrence kept)."""
    degree: int
    time_basis: tuple
    t: sp.Symbol
    include_B: bool = False

    def __post_init__(self):
        basis = tuple(sp.sympify(b) for b in self.time_basis)
        if self.degree < 0:
            raise ValueError("degree must be >= 0")
        # closed iff every pivot of [B | dB/dt] lies in B; B's pivot
        # columns are a basis of its span
        t = self.t
        symbols = sorted({t}.union(*(b.free_symbols for b in basis)),
                         key=sp.default_sort_key)
        calc, (elements,) = _in_exp_ring(symbols, (), t, [basis],
                                         NonClosedBasisError)
        columns = ([(b,) for b in elements]
                   + [(calc.d(b, calc.t),) for b in elements])
        pivots, _ = _rref_rows(_coefficient_matrix(calc, columns))
        if any(p >= len(basis) for p in pivots):
            raise NonClosedBasisError(
                f"d/dt of the time basis {basis} leaves its span")
        object.__setattr__(self, "time_basis", tuple(basis[p] for p in pivots))


@dataclass(frozen=True)
class SymmetryBasis:
    generators: tuple

    @property
    def dimension(self):
        return len(self.generators)


@dataclass(frozen=True)
class StructuralFact:
    """Consequence of sigma^j_k d2_{jm} xi^i = 0 for x-independent sigma."""
    applies: bool
    degree_cap: int | None = None


def xi_second_derivative_constraint(ito: ItoSystem) -> StructuralFact:
    """For x-independent sigma, the Hessian columns of every xi^i must lie
    in null(sigma^T); an invertible sigma therefore caps the ansatz degree
    at 1."""
    x = set(ito.context.spatial)
    if any(sp.sympify(e).free_symbols & x for row in ito.sigma for e in row):
        return StructuralFact(applies=False)
    null = ito.sigma_matrix().T.nullspace()
    return StructuralFact(applies=True, degree_cap=None if null else 1)


def _monomials(x, degree, one):
    out = []
    for total in range(degree + 1):
        for combo in itertools.combinations_with_replacement(range(len(x)), total):
            m = one
            for j in combo:
                m *= x[j]
            out.append(m)
    return out


def _elements(n, m, basis, monomials, mixers, one, zero):
    """(tau, xi, B) of each ansatz basis element, one per column of the
    coefficient matrix; B is e_pq - e_qp for a mixer (p, q), else None."""
    z = (zero,) * n
    out = [(zero, z[:i] + (bt * mu,) + z[i + 1:], None)
           for i in range(n) for mu in monomials for bt in basis]
    out += [(bt, z, None) for bt in basis]
    return out + [(zero, z, [[one if (a, b) == pq else -one if (b, a) == pq
                              else zero for b in range(m)] for a in range(m)])
                  for pq in mixers]


def _first_label(report, verdict):
    return next(label for label, v, _ in report.per_equation if v is verdict)


def _common_radical(sigma):
    """(lam, sigma / lam) when every term of sigma's entries has one factor
    lam = sqrt(r), r an integer, else (1, sigma): the noise families are
    homogeneous in sigma, and the others see only S."""
    def radical(f):
        return f.is_Pow and f.exp == sp.S.Half and f.base.is_Integer
    parts = [[[sift(sp.Mul.make_args(a), radical, binary=True)
               for a in sp.Add.make_args(e) if a != 0] for e in row]
             for row in sigma]
    radicals = {sp.Mul(*r) for row in parts for e in row for r, _ in e}
    if len(radicals) != 1 or 1 in radicals:
        return 1, sigma
    return radicals.pop(), [[sp.Add(*(sp.Mul(*a) for _, a in e)) for e in row]
                            for row in parts]


def _columns(ito: ItoSystem, ansatz: Ansatz, which: str):
    """The ansatz basis elements (tau, xi, B) as expressions, the
    calculus of the ring of `_in_exp_ring` and the columns of the
    coefficient matrix in it: the Lambda and Gamma entries of each
    element. Gamma is built from sigma / lam (`_common_radical`), which
    keeps the row space, hence the generators."""
    ctx = ito.context
    x, t = ctx.spatial, ctx.t
    n, m = ito.n, ito.m
    degree = ansatz.degree
    cap = xi_second_derivative_constraint(ito)
    if cap.degree_cap is not None:
        degree = min(degree, cap.degree_cap)
    mixers = (list(itertools.combinations(range(m), 2))
              if which == "w" and ansatz.include_B else [])
    elements = _elements(n, m, ansatz.time_basis,
                         _monomials(x, degree, sp.Integer(1)), mixers,
                         sp.Integer(1), sp.Integer(0))
    lam, scaled = _common_radical(ito.sigma)
    converted = _convert(_Ring(ctx.ring, x, t),
                         [ansatz.time_basis, ito.f, *scaled], relations=False)
    if converted is None:
        lam, converted = 1, _over_expressions(
            x, t, [ansatz.time_basis, ito.f, *ito.sigma], OutsideAnsatzError)
    calc, (basis, f, *sigma) = converted
    c = _Coefficients(calc, calc.x, calc.t, f, sigma, lam)
    gens = [calc.ring.gens[i] for i in calc.x]
    forms = _elements(n, m, basis, _monomials(gens, degree, calc.one), mixers,
                      calc.one, calc.zero)
    columns = []
    for tau, xi, B in forms:
        lam, gam = _lambda_gamma_of(c, tau, xi, list(zip(*B)) if B else [])
        columns.append([*lam, *(e for row in gam for e in row)])
    return elements, calc, columns


def solve_ansatz(ito: ItoSystem, ansatz: Ansatz, which: str = "projectable") -> SymmetryBasis:
    """Basis of the symmetry generators inside the ansatz, deterministic
    (reduced row-echelon normalization with a fixed monomial ordering).
    Every returned generator is re-verified through verify.check."""
    if which not in ("projectable", "w"):
        raise ValueError("which must be 'projectable' or 'w'")
    ctx = ito.context
    n, m = ito.n, ito.m
    elements, calc, columns = _columns(ito, ansatz, which)
    M = _coefficient_matrix(calc, columns)
    K = M.domain
    # null basis off the free columns, then its unique RREF
    pivots, rows = _rref_rows(M)
    free = sorted(set(range(len(elements))) - set(pivots))
    null = {}
    for i, f in enumerate(free):
        null[i] = {p: -row[f] for p, row in zip(pivots, rows) if f in row}
        null[i][f] = K.one
    _, reduced = _rref_rows(DomainMatrix(null, (len(free), len(elements)), K))
    generators = []
    for row in reduced:
        # each q mapped back to the sqrt(p) it stands for
        picked = [(K.to_sympy(row[j]).xreplace(calc.back), elements[j])
                  for j in sorted(row)]
        # the constructors normalize every entry
        g_tau = sum(c * tau for c, (tau, _, _) in picked)
        g_xi = tuple(sum(c * xi[i] for c, (_, xi, _) in picked) for i in range(n))
        g_B = sum((c * sp.Matrix(B) for c, (_, _, B) in picked if B),
                  sp.zeros(m, m))
        gen = VectorField(ctx, tau=g_tau, xi=g_xi,
                          Bmat=g_B.tolist() if which == "w" else None)
        # the generator's Lambda/Gamma system, with its mixer's term if any
        report = check(detsys_projectable(ito, gen))
        if report.overall is OverallVerdict.INCONCLUSIVE:
            raise InconclusiveError(
                "re-verification of a solver candidate is inconclusive at "
                + _first_label(report, Verdict.INCONCLUSIVE))
        if report.overall is OverallVerdict.NOT_SYMMETRY:
            raise NonlinearEntanglementError(
                "solver produced a candidate that fails re-verification at "
                + _first_label(report, Verdict.NONZERO)
                + "; parameters are likely entangled nonlinearly")
        generators.append(gen)
    return SymmetryBasis(generators=tuple(generators))


def membership_coordinates(basis: SymmetryBasis, vf: VectorField):
    """Coordinates of vf in the span of the basis generators, or None.
    Used to test completeness within an ansatz."""
    return _coordinates([(g.tau, *g.xi) for g in basis.generators],
                        (vf.tau, *vf.xi), vf.context)


@dataclass(frozen=True)
class ClosureReport:
    closed: bool
    table: dict = field(default_factory=dict)  # (i, j) -> coords or None


def commutator(v1: VectorField, v2: VectorField) -> VectorField:
    """[v1, v2] for projectable fields: tau = tau1 tau2' - tau2 tau1',
    xi = tau1 d_t xi2 - tau2 d_t xi1 + {xi1, xi2}."""
    x, t = v1.context.spatial, v1.context.t
    tau = v1.tau * sp.diff(v2.tau, t) - v2.tau * sp.diff(v1.tau, t)
    bracket = lie_bracket(v1.xi, v2.xi, x)
    xi = tuple(v1.tau * sp.diff(b, t) - v2.tau * sp.diff(a, t) + c
               for a, b, c in zip(v1.xi, v2.xi, bracket))
    return VectorField(v1.context, tau=tau, xi=xi)


def commutator_closure(basis: SymmetryBasis) -> ClosureReport:
    """Pairwise commutators expressed in the basis; reports structure
    constants or flags the algebra as not closed within the ansatz."""
    gens = basis.generators
    if any(g.Bmat is not None for g in gens):
        raise ValueError("commutator closure is defined for bases without a "
                         "noise mixer")
    table = {}
    closed = True
    for i in range(len(gens)):
        for j in range(i + 1, len(gens)):
            coords = membership_coordinates(basis, commutator(gens[i], gens[j]))
            table[(i, j)] = coords
            if coords is None:
                closed = False
    return ClosureReport(closed=closed, table=table)
