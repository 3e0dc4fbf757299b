"""Symmetry search by bounded ansatz: xi polynomial in x with coefficients
over a finite time-function basis closed under d/dt, tau over the same
basis. Coefficient matching turns the determining systems into an exact
homogeneous linear problem, eliminated by one sparse row reduction over
the fraction field of the parameters, or over EX for radical
coefficients. The determining operator is linear in the candidate, so the
coefficient matrix is built column by column, one ansatz basis element at
a time."""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import sympy as sp
from sympy.polys.matrices import DomainMatrix
from sympy.polys.rings import PolyElement

from .kernel import InconclusiveError, Verdict
from .model import ItoSystem, VectorField, WSymmetry, lie_bracket
from .detgen import _lambda_gamma, detsys_projectable, detsys_w
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


# --- linear decomposition over {x^a * t^b * exp(...)} monomials ---

def _replace_exps(e, reps):
    """Structurally replace every exp node by a fresh generator keyed by its
    (expanded) argument; distinct arguments are linearly independent."""
    def repl(arg):
        key = sp.expand(arg)
        if key not in reps:
            reps[key] = sp.Dummy("E")
        return reps[key]
    return e.replace(sp.exp, repl)


def _coefficient_matrix(columns, variables, error):
    """Sparse DomainMatrix over a field whose column j holds the coordinates
    of `columns[j]`, a sequence of expressions or ring elements, with one
    row per (entry, monomial) over `variables` and the exponential atoms.
    All columns share one exp-atom table and one coefficient domain: the
    parameters' polynomial ring (eliminated over its fraction field), or EX
    for radical coefficients. Raises `error` for an entry outside that
    span."""
    reps = {}
    keys = [(j, r) for j, col in enumerate(columns) for r in range(len(col))]
    # a ring element is already expanded and holds no exponential
    entries = [e.as_expr() if isinstance(e, PolyElement)
               else _replace_exps(sp.expand(e), reps)
               for col in columns for e in col]
    gens = (*variables, *reps.values())
    try:
        polys, opt = sp.parallel_poly_from_expr(entries, *gens)
    except sp.PolynomialError as exc:
        # name the first offending entry, on this error path only
        exps = {v: sp.exp(k) for k, v in reps.items()}
        for e in entries:
            try:
                sp.Poly(e, *gens)
            except sp.PolynomialError:
                raise error(f"{e.xreplace(exps)} is not polynomial over the "
                            f"ansatz monomials (x, t and exponentials)") from exc
        raise
    rows = {}
    for (j, r), p in zip(keys, polys):
        for monom, c in p.as_dict(native=True).items():
            rows.setdefault((r, monom), {})[j] = c
    index = {key: i for i, key in enumerate(sorted(rows))}
    return DomainMatrix({index[key]: row for key, row in rows.items()},
                        (len(rows), len(columns)), opt.domain).to_field()


def _rref_rows(M):
    """Pivot columns and rows {column: element} of the RREF of M, in pivot
    order."""
    R, pivots = M.rref()
    return pivots, [R.rep[i] for i in sorted(R.rep)]


def _coordinates(columns, target, variables, error):
    """Coefficients expressing `target` in the span of `columns` (sequences
    of expressions of equal length), or None when it lies outside. Free
    coordinates are pinned to zero."""
    M = _coefficient_matrix([*columns, target], variables, error)
    k = len(columns)
    pivots, rows = _rref_rows(M)
    if k in pivots:
        return None
    coords = [sp.Integer(0)] * k
    for p, row in zip(pivots, rows):
        coords[p] = M.domain.to_sympy(row.get(k, M.domain.zero))
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
        columns = [(b,) for b in basis]
        columns += [(sp.diff(b, self.t),) for b in basis]
        M = _coefficient_matrix(columns, (self.t,), NonClosedBasisError)
        pivots, _ = _rref_rows(M)
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


def _monomials(x, degree):
    out = []
    for total in range(degree + 1):
        for combo in itertools.combinations_with_replacement(range(len(x)), total):
            m = sp.Integer(1)
            for j in combo:
                m *= x[j]
            out.append(m)
    return out


def _first_label(report, verdict):
    return next(label for label, v, _ in report.per_equation if v is verdict)


def solve_ansatz(ito: ItoSystem, ansatz: Ansatz, which: str = "projectable") -> SymmetryBasis:
    """Basis of the symmetry generators inside the ansatz, deterministic
    (reduced row-echelon normalization with a fixed monomial ordering).
    Every returned generator is re-verified through verify.check."""
    if which not in ("projectable", "w"):
        raise ValueError("which must be 'projectable' or 'w'")
    ctx = ito.context
    x, t = ctx.spatial, ctx.t
    n, m = ito.n, ito.m
    degree = ansatz.degree
    cap = xi_second_derivative_constraint(ito)
    if cap.degree_cap is not None:
        degree = min(degree, cap.degree_cap)
    zero = (sp.Integer(0),) * n

    # basis elements (tau, xi, B), one per column of the coefficient matrix
    elements = [(0, zero[:i] + (bt * mu,) + zero[i + 1:], None)
                for i in range(n) for mu in _monomials(x, degree)
                for bt in ansatz.time_basis]
    elements += [(bt, zero, None) for bt in ansatz.time_basis]
    if which == "w" and ansatz.include_B and m > 1:
        for p, q in itertools.combinations(range(m), 2):
            B = sp.zeros(m, m)
            B[p, q], B[q, p] = 1, -1
            elements.append((0, zero, B))
    columns = []
    for tau, xi, B in elements:
        lam, gam = _lambda_gamma(ito, tau, xi, B)
        columns.append([*lam, *(e for row in gam for e in row)])

    M = _coefficient_matrix(columns, (*x, t), OutsideAnsatzError)
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
        picked = [(K.to_sympy(row[j]), elements[j]) for j in sorted(row)]
        # the constructors normalize every entry
        g_tau = sum(c * tau for c, (tau, _, _) in picked)
        g_xi = tuple(sum(c * xi[i] for c, (_, xi, _) in picked) for i in range(n))
        if which == "w":
            g_B = sum((c * B for c, (_, _, B) in picked if B is not None),
                      sp.zeros(m, m))
            gen = WSymmetry(ctx, tau=g_tau, xi=g_xi, Bmat=g_B.tolist())
            report = check(detsys_w(ito, gen))
        else:
            gen = VectorField(ctx, tau=g_tau, xi=g_xi)
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
    if not basis.generators:
        return None
    ctx = vf.context
    return _coordinates([(g.tau, *g.xi) for g in basis.generators],
                        (vf.tau, *vf.xi), (*ctx.spatial, ctx.t),
                        OutsideAnsatzError)


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
    if any(not isinstance(g, VectorField) for g in gens):
        raise ValueError("commutator closure is defined for VectorField bases")
    table = {}
    closed = True
    for i in range(len(gens)):
        for j in range(i + 1, len(gens)):
            coords = membership_coordinates(basis, commutator(gens[i], gens[j]))
            table[(i, j)] = coords
            if coords is None:
                closed = False
    return ClosureReport(closed=closed, table=table)
